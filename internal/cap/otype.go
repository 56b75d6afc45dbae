package cap

import "fmt"

// OType is a capability object type. An unsealed capability has
// TypeUnsealed; sealing stamps a non-zero object type onto the capability,
// after which it can be stored and passed around but not used or modified
// until unsealed by a capability whose bounds cover the same object type.
//
// CHERIoT reserves a handful of object types for sentries (sealed entry
// capabilities unsealed by the jump instruction, with interrupt-posture
// semantics) and leaves only a small number of types for data sealing —
// which is why the RTOS virtualizes sealing in the token API (§3.2.1).
type OType uint32

const (
	// TypeUnsealed marks an ordinary, unsealed capability.
	TypeUnsealed OType = 0

	// Sentry object types. Forward sentries may change the interrupt
	// posture when jumped to; backward (return) sentries restore it.
	TypeSentryInherit       OType = 1 // forward, keep current posture
	TypeSentryEnable        OType = 2 // forward, enable interrupts
	TypeSentryDisable       OType = 3 // forward, disable interrupts
	TypeSentryReturnEnable  OType = 4 // backward, re-enable interrupts
	TypeSentryReturnDisable OType = 5 // backward, re-disable interrupts

	// firstSealType is the first object type available for data sealing.
	firstSealType OType = 9

	// TypeSwitcherExport seals capabilities to compartment export tables;
	// only the switcher can unseal them (§3.1.2).
	TypeSwitcherExport OType = firstSealType + 0
	// TypeSchedulerState seals interrupted-thread register state handed to
	// the scheduler, which cannot inspect it (§3.1.4).
	TypeSchedulerState OType = firstSealType + 1
	// TypeToken is the single hardware sealing type the token API
	// virtualizes into arbitrarily many software-defined types (§3.2.1).
	TypeToken OType = firstSealType + 2
	// TypeAllocator seals allocation capabilities (§3.2.2).
	TypeAllocator OType = firstSealType + 3
	// TypeUser0 through TypeUser2 are free for firmware-defined use. Two
	// compartments sharing one of these could unseal each other's objects,
	// which is exactly the scarcity that motivates the token API.
	TypeUser0 OType = firstSealType + 4
	TypeUser1 OType = firstSealType + 5
	TypeUser2 OType = firstSealType + 6

	// typeLimit bounds the hardware object-type space; the encoding of
	// CHERIoT capabilities allows only seven data sealing types.
	typeLimit OType = firstSealType + 7
)

// IsSentry reports whether t is one of the sentry object types.
func (t OType) IsSentry() bool {
	return t >= TypeSentryInherit && t <= TypeSentryReturnDisable
}

// IsDataSeal reports whether t is a data sealing type usable by software.
func (t OType) IsDataSeal() bool { return t >= firstSealType && t < typeLimit }

// FirstSealType and SealTypeCount describe the data sealing type space.
// They are exported for the loader, which hands sealing authority over
// disjoint ranges of this space to TCB compartments.
const (
	FirstSealType  = firstSealType
	SealTypeCount  = int(typeLimit - firstSealType)
	SealTypeLimit  = typeLimit
	SentryTypeLast = TypeSentryReturnDisable
)

func (t OType) String() string {
	switch t {
	case TypeUnsealed:
		return "unsealed"
	case TypeSentryInherit:
		return "sentry(inherit)"
	case TypeSentryEnable:
		return "sentry(enable-irq)"
	case TypeSentryDisable:
		return "sentry(disable-irq)"
	case TypeSentryReturnEnable:
		return "return-sentry(enable-irq)"
	case TypeSentryReturnDisable:
		return "return-sentry(disable-irq)"
	case TypeSwitcherExport:
		return "sealed(switcher-export)"
	case TypeSchedulerState:
		return "sealed(scheduler-state)"
	case TypeToken:
		return "sealed(token)"
	case TypeAllocator:
		return "sealed(allocator)"
	default:
		return fmt.Sprintf("sealed(%d)", uint32(t))
	}
}
