package mem

import "fmt"

// Device is a memory-mapped peripheral. Offsets are byte offsets from the
// window base; accesses are 32-bit words, which matches the register files
// of the simple embedded devices we model (timer, revoker control, UART,
// LED bank, network adaptor).
type Device interface {
	LoadWord(off uint32) uint32
	StoreWord(off uint32, v uint32)
}

type window struct {
	base uint32
	size uint32
	dev  Device
}

// MapDevice maps dev at [base, base+size). Device windows must lie above
// SRAM and must not overlap. Compartments reach a window only through the
// MMIO capability the loader places in their import table, which is what
// makes device access auditable (§3.1.1).
func (m *Memory) MapDevice(base, size uint32, dev Device) {
	if base < m.size {
		panic(fmt.Sprintf("mem: device window %#x overlaps SRAM", base))
	}
	for _, w := range m.windows {
		if base < w.base+w.size && w.base < base+size {
			panic(fmt.Sprintf("mem: device window %#x overlaps existing window %#x", base, w.base))
		}
	}
	m.windows = append(m.windows, window{base: base, size: size, dev: dev})
}

func (m *Memory) findWindow(addr, n uint32) *window {
	for i := range m.windows {
		w := &m.windows[i]
		if addr >= w.base && addr+n <= w.base+w.size {
			return w
		}
	}
	return nil
}
