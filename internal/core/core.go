// Package core is the public facade of the CHERIoT RTOS reproduction: it
// assembles a firmware image (user compartments plus the TCB: loader,
// switcher, allocator, scheduler, token API), boots it, and runs the
// simulated machine.
//
// The primary contribution of the paper — fine-grained, fault-tolerant,
// memory-safe compartments on capability hardware — is exercised entirely
// through this package: define compartments and threads on an Image, Boot
// it, Run it.
package core

import (
	"fmt"
	"slices"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/loader"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/switcher"
	"github.com/cheriot-go/cheriot/internal/telemetry"
	"github.com/cheriot-go/cheriot/internal/token"
)

// System is a booted machine.
type System struct {
	Image  *firmware.Image
	Kernel *switcher.Kernel
	Board  *loader.Board
	Report *firmware.Report

	Sched *sched.Sched
	Alloc *alloc.Alloc
	Token *token.Token

	// Snapshot is the captured post-boot machine state, non-nil only when
	// the System was booted with BootOptions.CaptureSnapshot. Fork boots
	// further identical Systems from it.
	Snapshot *loader.Snapshot
}

// NewImage returns an empty firmware image with the paper's default board
// parameters (256 KiB SRAM, 33 MHz).
func NewImage(name string) *firmware.Image { return firmware.NewImage(name) }

// BootOptions tunes Boot for callers that construct many Systems (the
// fleet simulator boots thousands).
type BootOptions struct {
	// SkipReport skips building the firmware audit report (System.Report
	// stays nil). The report is pure derived data — it never feeds back
	// into the capability graph — so the booted machine is identical;
	// audit one representative image instead of re-deriving the same
	// report per device.
	SkipReport bool
	// CaptureSnapshot records the complete post-boot machine state into
	// System.Snapshot: the SRAM image (data, stored capabilities, tag and
	// revocation bitmaps), the linker layout, the quota records, and each
	// compartment's capability sets. The booted machine itself is
	// unchanged; capturing costs one sparse SRAM scan.
	CaptureSnapshot bool
}

// Boot adds the TCB compartments to a copy of the image, links it, runs
// the loader, and attaches the TCB to the booted kernel. The caller's
// image is left as it was, so one image boots any number of independent
// Systems; System.Image is the booted copy. On return the loader has
// erased itself and the machine is ready to Run.
func Boot(img *firmware.Image) (*System, error) {
	return BootWith(img, BootOptions{})
}

// BootWith is Boot with explicit BootOptions.
func BootWith(img *firmware.Image, opts BootOptions) (*System, error) {
	// Clip makes the TCB's appends copy the compartment list, so the
	// caller's image keeps its own.
	booted := *img
	booted.Compartments = slices.Clip(img.Compartments)
	sched.AddTo(&booted)
	alloc.AddTo(&booted)
	token.AddTo(&booted)
	boot, err := loader.LoadWith(&booted, loader.Options{SkipReport: opts.SkipReport, CaptureSnapshot: opts.CaptureSnapshot})
	if err != nil {
		return nil, fmt.Errorf("core: boot failed: %w", err)
	}
	return attach(boot), nil
}

// Fork boots a System from a snapshot a capture took (System.Snapshot
// of a BootWith with CaptureSnapshot) without running the linker or the
// loader: it boots the captured image as is, TCB included, so
// System.Image, its compartment definitions and the report are the
// capture's, shared by every fork. Only the machine is the fork's own:
// its memory, kernel and TCB services. It is indistinguishable from a
// cold boot of the image. With CaptureSnapshot its System.Snapshot is
// snap.
func Fork(snap *loader.Snapshot, opts BootOptions) *System {
	return attach(loader.Fork(snap, loader.Options{SkipReport: opts.SkipReport, CaptureSnapshot: opts.CaptureSnapshot}))
}

// attach makes the System around a booted machine: it makes the TCB's
// services for the machine, installs each as its compartment's state,
// and wires them to the kernel. The TCB compartments declare no State
// factory, and FinishReset rebuilds a compartment's state only from its
// factory, so no micro-reboot replaces a service under the kernel.
func attach(boot *loader.Boot) *System {
	s := &System{Image: boot.Image, Kernel: boot.Kernel, Board: boot.Board,
		Report: boot.Report, Snapshot: boot.Snapshot,
		Sched: sched.New(), Alloc: alloc.New(), Token: token.New()}
	s.Kernel.Comp(sched.Name).SetState(s.Sched)
	s.Kernel.Comp(alloc.Name).SetState(s.Alloc)
	s.Kernel.Comp(token.Name).SetState(s.Token)
	s.Sched.Attach(s.Kernel)
	s.Alloc.Attach(s.Kernel, boot.Quotas)
	return s
}

// EnableTelemetry turns on the unified telemetry layer: per-compartment
// cycle accounting (sums exactly to the cycles elapsed from this call),
// counters and histograms from the kernel, allocator, scheduler, and
// netstack, and — when traceCapacity > 0 — the trace ring, one of the two
// sinks of Kernel.Emit (the flight recorder is the other). The ring keeps
// the kernel, scheduler, allocator, and network events of the kinds the
// trace holds (telemetry.Kind.Traced); the registry exports as a table,
// JSON snapshot, or Chrome trace_event file. It returns the registry.
func (s *System) EnableTelemetry(traceCapacity int) *telemetry.Registry {
	clock := s.Board.Core.Clock
	r := telemetry.NewRegistry(clock.Hz())
	r.EnableTrace(traceCapacity)
	s.Kernel.EnableTelemetry(r)
	s.armSweepHook()
	return r
}

// Telemetry returns the registry installed by EnableTelemetry, or nil.
func (s *System) Telemetry() *telemetry.Registry { return s.Kernel.Telemetry() }

// EnableProfiler arms the cycle-exact compartment profiler: every
// trusted-stack frame holds its profile node, so every simulated cycle
// from this call onward lands on exactly one cross-compartment stack
// frame. Arm it before the first Run: a frame already on a thread's
// stack holds no node, and its cycles would land on no frame (the
// profile's SelfSum would fall short of its TotalCycles). Enable it at
// the same instant as telemetry (no intervening ticks) and the profile
// total equals the registry's attributed cycles. It returns the profiler.
func (s *System) EnableProfiler() *prof.Profiler {
	p := prof.New(s.Board.Core.Clock)
	s.Kernel.EnableProfiler(p)
	return p
}

// Profiler returns the profiler installed by EnableProfiler, or nil.
func (s *System) Profiler() *prof.Profiler { return s.Kernel.Profiler() }

// EnableFlightRecorder attaches a flight recorder with an event ring of
// the given capacity: the always-on black box recording capability
// derivations, cross-compartment calls, heap traffic, revocation sweeps,
// futex activity, and — on every capability fault — a structured
// post-mortem report with a backwards provenance walk. capacity <= 0
// disables recording. It returns the recorder.
func (s *System) EnableFlightRecorder(capacity int) *flightrec.Recorder {
	rec := flightrec.New(capacity)
	rec.SetDevice(s.Image.Name)
	s.Kernel.EnableFlightRecorder(rec)
	s.armSweepHook()
	if rec.Enabled() {
		s.Board.Core.Mem.SetLoadFilterHook(func(c cap.Capability) {
			ev := telemetry.Event{Kind: telemetry.KindLoadFiltered,
				Arg: uint64(c.Base()), Arg2: uint64(c.Address())}
			if t := s.Kernel.Running(); t != nil {
				ev.To = t.CurrentCompartment()
			}
			s.Kernel.Emit(ev)
		})
	} else {
		s.Board.Core.Mem.SetLoadFilterHook(nil)
	}
	return rec
}

// FlightRecorder returns the recorder installed by EnableFlightRecorder,
// or nil.
func (s *System) FlightRecorder() *flightrec.Recorder { return s.Kernel.FlightRecorder() }

// FlightDump snapshots the flight recorder into its serializable dump
// (zero-valued when recording is disabled).
func (s *System) FlightDump() flightrec.Dump {
	return s.Kernel.FlightRecorder().Snapshot(s.Board.Core.Clock.Hz())
}

// armSweepHook installs the revoker sweep observer: it emits each
// sweep's start and end, and the telemetry registry counts the ends.
// EnableTelemetry and EnableFlightRecorder both call it, in any order.
func (s *System) armSweepHook() {
	s.Board.Core.Revoker.SetSweepHook(func(start bool, epoch, granules uint64) {
		if start {
			s.Kernel.Emit(telemetry.Event{Kind: telemetry.KindSweepStart, Arg: epoch})
			return
		}
		s.Kernel.Emit(telemetry.Event{Kind: telemetry.KindSweepEnd, Arg: epoch, Arg2: granules})
	})
}

// Run drives the machine until every thread exits, stop returns true, or
// the system deadlocks.
func (s *System) Run(stop func() bool) error { return s.Kernel.Run(stop) }

// RunFor drives the machine for at most the given number of cycles.
func (s *System) RunFor(cycles uint64) error {
	deadline := s.Board.Core.Clock.Cycles() + cycles
	return s.Kernel.Run(func() bool { return s.Board.Core.Clock.Cycles() >= deadline })
}

// Shutdown kills and unwinds the suspended thread coroutines. Always call
// it (defer it) when done with a System whose threads may still be
// blocked.
func (s *System) Shutdown() { s.Kernel.Shutdown() }

// Cycles returns the current simulated cycle count.
func (s *System) Cycles() uint64 { return s.Board.Core.Clock.Cycles() }
