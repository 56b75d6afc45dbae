package switcher

import (
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

// Comp is a compartment at run time: its firmware definition plus the
// capabilities the loader derived for it (Fig. 3). The switcher consults
// it on every domain transition.
type Comp struct {
	def    *firmware.Compartment
	layout firmware.CompLayout

	// globals is the read-write capability over the data region; code is
	// the execute capability over the code region.
	globals cap.Capability
	code    cap.Capability

	// importCalls holds the sealed export-table capabilities of the
	// compartment entries it may call, and importLibs the library
	// functions it may call; mmio and sealedImports are the other import
	// kinds; shared holds statically-shared global capabilities.
	importCalls   map[EntryKey]cap.Capability
	importLibs    map[EntryKey]bool
	mmio          map[string]cap.Capability
	sealedImports map[string]cap.Capability
	shared        map[string]cap.Capability

	// entries is the image's entry table of the compartment, which
	// every machine booted from the image shares.
	entries map[string]Entry

	// state is the compartment's private Go-level state object.
	state interface{}

	// resetting marks an in-progress micro-reboot: calls are refused and
	// threads inside the compartment fault at their next operation.
	resetting bool
	// reboots counts completed micro-reboots; handlerCycles is the cost
	// of the error handler's last run.
	reboots       int
	handlerCycles uint64

	// acct is the compartment's telemetry cycle account (nil when telemetry
	// is disabled); the switcher installs it in the clock whenever this
	// compartment is on top of the running thread's trusted stack.
	acct *telemetry.CycleAccount
}

// EntryKey names an entry point: a compartment or library, and one of its
// exports. The import tables are keyed by it, so checking a call builds no
// string.
type EntryKey struct{ Target, Entry string }

// Entry is an export as the switcher calls it: its definition and the
// label of the profile frame a call of it enters, "compartment.entry".
type Entry struct {
	*firmware.Export
	Label string
}

// CompConfig is everything the loader derived for a compartment. A
// snapshot's forks share its records, maps included, so no field holds
// a machine's value.
type CompConfig struct {
	Def *firmware.Compartment
	// Entries is the entry table, keyed by export name.
	Entries       map[string]Entry
	Layout        firmware.CompLayout
	Code          cap.Capability
	Globals       cap.Capability
	ImportCalls   map[EntryKey]cap.Capability
	ImportLibs    map[EntryKey]bool
	MMIO          map[string]cap.Capability
	SealedImports map[string]cap.Capability
	Shared        map[string]cap.Capability
}

// NewComp builds a runtime compartment from the loader's output, with
// the state its definition's State factory makes, if it declares one.
func NewComp(cfg CompConfig) *Comp {
	c := &Comp{
		def:           cfg.Def,
		entries:       cfg.Entries,
		layout:        cfg.Layout,
		code:          cfg.Code,
		globals:       cfg.Globals,
		importCalls:   cfg.ImportCalls,
		importLibs:    cfg.ImportLibs,
		mmio:          cfg.MMIO,
		sealedImports: cfg.SealedImports,
		shared:        cfg.Shared,
	}
	if cfg.Def.State != nil {
		c.state = cfg.Def.State()
	}
	return c
}

// NewLib builds a runtime shared library.
func NewLib(def *firmware.Library, code cap.Capability) *Lib {
	l := &Lib{def: def, code: code, funcs: make(map[string]*firmware.Export, len(def.Funcs))}
	for _, f := range def.Funcs {
		l.funcs[f.Name] = f
	}
	return l
}

// Name returns the compartment name.
func (c *Comp) Name() string { return c.def.Name }

// Def returns the firmware definition.
func (c *Comp) Def() *firmware.Compartment { return c.def }

// Layout returns the linker-assigned regions.
func (c *Comp) Layout() firmware.CompLayout { return c.layout }

// Globals returns the compartment's data-region capability.
func (c *Comp) Globals() cap.Capability { return c.globals }

// State returns the compartment's state on this machine: what its State
// factory made, or what SetState installed.
func (c *Comp) State() any { return c.state }

// SetState installs v as the state of a compartment that declares no
// State factory, for an embedder that makes the state per machine (core
// installs the TCB's services so). FinishReset rebuilds state only from
// a factory, so a micro-reboot keeps v.
func (c *Comp) SetState(v any) { c.state = v }

// Resetting reports whether the compartment is mid micro-reboot.
func (c *Comp) Resetting() bool { return c.resetting }

// Reboots returns how many micro-reboots of the compartment completed.
func (c *Comp) Reboots() int { return c.reboots }

// HandlerCycles returns the cycles from entry to return of the last run
// of the compartment's error handler: a micro-reboot's cost.
func (c *Comp) HandlerCycles() uint64 { return c.handlerCycles }

// importsCall reports whether the compartment's import table authorizes a
// call to target.entry.
func (c *Comp) importsCall(target, entry string) bool {
	_, ok := c.importCalls[EntryKey{target, entry}]
	return ok
}

// importsLib reports whether the compartment imports a library function.
func (c *Comp) importsLib(lib, fn string) bool {
	return c.importLibs[EntryKey{lib, fn}]
}

// Lib is a shared library at run time. Its functions execute in the
// caller's security domain; it has no globals (§3).
type Lib struct {
	def   *firmware.Library
	code  cap.Capability
	funcs map[string]*firmware.Export
}

// Name returns the library name.
func (l *Lib) Name() string { return l.def.Name }
