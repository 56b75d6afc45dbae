// Package firmware models a CHERIoT firmware image at build time: the
// static set of compartments, shared libraries, threads, device grants,
// and allocation capabilities that the loader instantiates at boot and the
// auditor reasons about (§3.1.1, §4).
//
// The static isolation model is the point: compartments and threads are
// fixed when the image is linked, which is what makes the firmware
// mechanically auditable before deployment.
package firmware

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/hw"
)

// Posture is the interrupt posture a function adopts when invoked, encoded
// in its sentry (§2.1). Non-TCB code cannot toggle interrupts directly; it
// can only annotate functions with a posture, which is auditable.
type Posture int8

const (
	// PostureInherit keeps the caller's interrupt status.
	PostureInherit Posture = iota
	// PostureEnabled runs the function with interrupts enabled.
	PostureEnabled
	// PostureDisabled runs the function with interrupts disabled
	// (deferred); the matching return sentry restores them.
	PostureDisabled
)

func (p Posture) String() string {
	switch p {
	case PostureEnabled:
		return "enabled"
	case PostureDisabled:
		return "disabled"
	default:
		return "inherit"
	}
}

// Image is a complete firmware description: everything the loader needs to
// instantiate the boot-time capability graph, and everything the linker
// needs to produce the audit report.
type Image struct {
	Name string
	// SRAM is the SRAM size in bytes (default 256 KiB, the paper's board).
	SRAM uint32
	// Hz is the core clock (default 33 MHz, the paper's board).
	Hz uint64

	Compartments []*Compartment
	Libraries    []*Library
	Threads      []*Thread
	// SharedGlobals are build-time shared data regions (§3: compartments
	// "can also share data ... statically via code annotations"). Each
	// grant is visible in the audit report, making statically-shared
	// state — a common over-sharing hazard (§3.2.5) — reviewable.
	SharedGlobals []SharedGlobal
}

// SharedGlobal is one statically-shared data region.
type SharedGlobal struct {
	Name string
	Size uint32
	// Writers receive read-write capabilities; Readers read-only ones.
	Writers []string
	Readers []string
}

// Compartment describes one static isolation unit: code, globals, the
// entry points it exports, and — critically for auditing — every import
// through which it may reach outside itself after boot.
type Compartment struct {
	Name string
	// CodeSize and DataSize model the compiled footprint in bytes; the
	// linker reserves SRAM accordingly and Table 2 sums them.
	CodeSize uint32
	DataSize uint32
	// WrapperCodeSize is the share of CodeSize attributable to a
	// compatibility/hardening wrapper around ported code (Table 2's
	// "% of which for wrapper" column).
	WrapperCodeSize uint32

	Exports []*Export
	Imports []Import
	// GlobalsInit is the initial content of the data region; the loader
	// copies it in at boot and micro-reboot restores it (§3.2.6 step 4).
	GlobalsInit []byte
	// ErrorHandler, if non-nil, is the compartment's global error handler.
	ErrorHandler api.ErrorHandler
	// AllocCaps are the static allocation capabilities (with quotas) the
	// loader seals into this compartment's import table (§3.2.2).
	AllocCaps []AllocCap
	// SealTypes are virtual sealing types this compartment owns. The
	// loader instantiates a key for each (reachable to the owner as the
	// sealed import "key:<name>"), usable with the token API exactly like
	// a dynamically-minted key (§3.2.1 "static opaque objects").
	SealTypes []string
	// StaticSealed are objects instantiated and sealed by the loader at
	// boot, under one of the owner's SealTypes. The owner reaches its own
	// objects by name; other compartments gain access only through an
	// ImportSealed entry, which the audit report shows.
	StaticSealed []StaticSealedObject
	// State, if non-nil, builds the compartment's private Go-level state
	// object at boot. It is the simulation's stand-in for compiled-in
	// global structures; micro-reboot re-runs the factory to reset them
	// (§3.2.6 step 4).
	State func() interface{}
}

// StaticSealedObject is a loader-instantiated sealed object (§3.2.1).
type StaticSealedObject struct {
	Name     string
	SealType string
	// Size is the payload size in bytes (the protected header is extra).
	Size uint32
	// Init is the payload's initial content.
	Init []byte
}

// Export is an entry point a compartment or library exposes. Only
// annotated (exported) functions are callable across compartments.
type Export struct {
	Name string
	// MinStack is the stack the entry requires; the switcher refuses the
	// call if the caller cannot supply it (§3.2.5 "checking entry points").
	MinStack uint32
	// Posture is the interrupt posture adopted on invocation.
	Posture Posture
	// Entry is the function body.
	Entry api.Entry
}

// ImportKind classifies an import-table entry.
type ImportKind int8

const (
	// ImportCall is a sealed capability to another compartment's export
	// table entry, unsealable only by the switcher.
	ImportCall ImportKind = iota
	// ImportLib is a sentry to a shared-library function.
	ImportLib
	// ImportMMIO is a capability to a device-register window.
	ImportMMIO
	// ImportSealed is a static sealed object (e.g. another compartment's
	// allocation capability delegated at build time).
	ImportSealed
)

func (k ImportKind) String() string {
	switch k {
	case ImportCall:
		return "call"
	case ImportLib:
		return "library"
	case ImportMMIO:
		return "mmio"
	case ImportSealed:
		return "sealed-object"
	default:
		return "?"
	}
}

// Import is one import-table entry: the only kind of pointer that may
// reach outside a compartment after boot (§4).
type Import struct {
	Kind ImportKind
	// Target is the compartment, library, or device name.
	Target string
	// Entry is the export/function name for call and library imports, or
	// the object name for sealed imports.
	Entry string
}

// Library is a shared library: code without a security context, executing
// in the caller's domain. Libraries must not have mutable globals (§3).
type Library struct {
	Name     string
	CodeSize uint32
	Funcs    []*Export
}

// Thread is a statically-created schedulable entity (§3).
type Thread struct {
	Name string
	// Compartment and Entry name the function where the thread starts.
	Compartment string
	Entry       string
	// Priority: higher runs first; equal priorities round-robin.
	Priority int
	// StackSize is the thread's stack region in bytes.
	StackSize uint32
	// TrustedStackFrames bounds compartment-call nesting depth.
	TrustedStackFrames int
}

// AllocCap is a static allocation capability: the sealed token of
// authority to allocate heap memory against a quota (§3.2.2).
type AllocCap struct {
	Name  string
	Quota uint32
}

// Device names recognized by ImportMMIO entries, mapped by the loader to
// the hw device windows.
const (
	DeviceTimer   = "timer"
	DeviceRevoker = "revoker"
	DeviceUART    = "uart"
	DeviceLED     = "led"
	DeviceNet     = "net"
)

// DeviceWindow returns the MMIO window for a device name.
func DeviceWindow(name string) (base, size uint32, err error) {
	switch name {
	case DeviceTimer:
		return hw.TimerBase, hw.WindowSize, nil
	case DeviceRevoker:
		return hw.RevokerBase, hw.WindowSize, nil
	case DeviceUART:
		return hw.UARTBase, hw.WindowSize, nil
	case DeviceLED:
		return hw.LEDBase, hw.WindowSize, nil
	case DeviceNet:
		return hw.NetBase, hw.WindowSize, nil
	default:
		return 0, 0, fmt.Errorf("firmware: unknown device %q", name)
	}
}

// NewImage returns an image with the paper's default board parameters.
func NewImage(name string) *Image {
	return &Image{Name: name, SRAM: 256 * 1024, Hz: hw.DefaultHz}
}

// AddCompartment appends a compartment and returns it for further setup.
func (img *Image) AddCompartment(c *Compartment) *Compartment {
	img.Compartments = append(img.Compartments, c)
	return c
}

// AddLibrary appends a shared library.
func (img *Image) AddLibrary(l *Library) *Library {
	img.Libraries = append(img.Libraries, l)
	return l
}

// AddThread appends a static thread definition.
func (img *Image) AddThread(t *Thread) *Thread {
	img.Threads = append(img.Threads, t)
	return t
}

// Compartment returns the named compartment, or nil.
func (img *Image) Compartment(name string) *Compartment {
	for _, c := range img.Compartments {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Library returns the named library, or nil.
func (img *Image) Library(name string) *Library {
	for _, l := range img.Libraries {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// Export returns the named export of a compartment, or nil.
func (c *Compartment) Export(name string) *Export {
	for _, e := range c.Exports {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Func returns the named function of a library, or nil.
func (l *Library) Func(name string) *Export {
	for _, e := range l.Funcs {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// AddImport is a convenience builder.
func (c *Compartment) AddImport(kind ImportKind, target, entry string) *Compartment {
	c.Imports = append(c.Imports, Import{Kind: kind, Target: target, Entry: entry})
	return c
}
