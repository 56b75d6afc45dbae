package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/fleet"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/mem"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/snapshot"
)

// probe is a loop over one layer's public functions, shaped like the
// traffic the workloads send through that layer.
type probe struct {
	Name string // metric stem: the layer, then the operation
	Unit string // host time per operation: "ns", or "us" for heavy ones
	Ops  int    // operations per batch at full scale
	// Simulated probes run on the simulated machine and also report
	// simulated cycles per operation, which the gate pins; Paper is the
	// paper's Fig. 6a value for the same point (0: the paper has none).
	Simulated bool
	Paper     float64
	// run performs ops operations, bracketing the timed part with
	// m.start and m.stop, and returns the simulated cycles they took.
	run func(ops int, m *meter) (simCycles uint64, err error)
}

const (
	probeBatches = 5       // timed batches; one more untimed batch warms up
	sramSize     = 1 << 18 // the paper's 256 KiB board
)

var probes = []probe{
	{Name: "cap.derive", Unit: "ns", Ops: 300_000, run: probeDerive},
	{Name: "cap.seal_unseal", Unit: "ns", Ops: 250_000, run: probeSealUnseal},
	{Name: "mem.load32", Unit: "ns", Ops: 600_000, run: probeLoad32},
	{Name: "mem.loadcap_filtered", Unit: "ns", Ops: 200_000, run: probeLoadCapFiltered},
	{Name: "mem.sweep_sram", Unit: "us", Ops: 5_000, run: probeSweep},
	{Name: "mem.snapshot_restore", Unit: "us", Ops: 250, run: probeRestore},
	{Name: "switcher.call", Unit: "ns", Ops: 80_000, Simulated: true, Paper: 209, run: probeCall(0)},
	{Name: "switcher.call_256_stack", Unit: "ns", Ops: 40_000, Simulated: true, Paper: 452, run: probeCall(256)},
	{Name: "switcher.call_1k_stack", Unit: "ns", Ops: 20_000, Simulated: true, Paper: 1284, run: probeCall(1024)},
	{Name: "switcher.libcall", Unit: "ns", Ops: 100_000, Simulated: true, run: probeLibCall},
	{Name: "sched.handoff", Unit: "ns", Ops: 4_000, run: probeHandoff},
	{Name: "sched.irq_wake", Unit: "ns", Ops: 60, Simulated: true, Paper: 1028, run: probeIRQ},
	{Name: "alloc.malloc_free", Unit: "ns", Ops: 6_000, run: probeMallocFree},
	{Name: "core.cold_boot", Unit: "us", Ops: 60, run: probeColdBoot},
	{Name: "snapshot.fork", Unit: "us", Ops: 80, run: probeFork},
	{Name: "netproto.mqtt_codec", Unit: "ns", Ops: 200_000, run: probeMQTT},
	{Name: "netproto.tls_seal_open", Unit: "ns", Ops: 6_000, run: probeTLS(32)},
	{Name: "netproto.tls_seal_open_512b", Unit: "ns", Ops: 4_000, run: probeTLS(512)},
	{Name: "netproto.tcp_codec", Unit: "ns", Ops: 130_000, run: probeTCP},
	{Name: "netsim.pump_frame", Unit: "ns", Ops: 20_000, run: probePump},
}

// probeResult is one row of the probe table.
type probeResult struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	PerOp     float64 `json:"per_op"` // median of the batches, in Unit
	P25       float64 `json:"p25"`
	P75       float64 `json:"p75"`
	Allocs    float64 `json:"allocs_per_op"`
	KiB       float64 `json:"kib_per_op"`
	SimCycles float64 `json:"simcycles_per_op,omitempty"`
}

// runProbes runs every probe with its batch size scaled by scale.
func runProbes(scale float64, log *spanLog) ([]probeResult, error) {
	var out []probeResult
	for _, p := range probes {
		ops := int(float64(p.Ops) * scale)
		if ops < 1 {
			ops = 1
		}
		div := 1.0
		if p.Unit == "us" {
			div = 1e3
		}
		var per, allocs, kib []float64
		var sim float64
		for b := 0; b <= probeBatches; b++ {
			var m meter
			sp := log.begin(p.Name)
			cycles, err := p.run(ops, &m)
			log.end(sp)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.Name, err)
			}
			if b == 0 {
				continue
			}
			per = append(per, float64(m.wall.Nanoseconds())/float64(ops)/div)
			allocs = append(allocs, float64(m.allocs)/float64(ops))
			kib = append(kib, float64(m.bytes)/float64(ops)/1024)
			sim = float64(cycles) / float64(ops)
		}
		q := quartiles(per)
		out = append(out, probeResult{
			Name: p.Name, Unit: p.Unit, PerOp: q.Median, P25: q.P25, P75: q.P75,
			Allocs: quartiles(allocs).Median, KiB: quartiles(kib).Median, SimCycles: sim,
		})
	}
	return out, nil
}

// meter times the measured part of a probe batch and counts the heap
// allocations it made.
type meter struct {
	t0            time.Time
	before        runtime.MemStats
	wall          time.Duration
	allocs, bytes uint64
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.before)
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocs = after.Mallocs - m.before.Mallocs
	m.bytes = after.TotalAlloc - m.before.TotalAlloc
}

// Sinks keep the compiler from discarding probe loops.
var (
	sinkU32 uint32
	sinkMem *mem.Memory
)

func probeDerive(ops int, m *meter) (uint64, error) {
	root := cap.Root(0, sramSize)
	m.start()
	for i := 0; i < ops; i++ {
		c, err := root.WithAddress(uint32(i*64) & (sramSize - 1)).SetBounds(64)
		if err != nil {
			return 0, err
		}
		if c, err = c.AndPerms(cap.PermData &^ cap.PermGlobal); err != nil {
			return 0, err
		}
		sinkU32 ^= c.Base()
	}
	m.stop()
	return 0, nil
}

func probeSealUnseal(ops int, m *meter) (uint64, error) {
	obj := cap.New(0x100, 0x200, 0x100, cap.PermData)
	key := cap.New(uint32(cap.TypeToken), uint32(cap.TypeToken)+1, uint32(cap.TypeToken),
		cap.PermSeal|cap.PermUnseal)
	m.start()
	for i := 0; i < ops; i++ {
		sealed, err := obj.Seal(key)
		if err != nil {
			return 0, err
		}
		c, err := sealed.Unseal(key)
		if err != nil {
			return 0, err
		}
		sinkU32 ^= c.Base()
	}
	m.stop()
	return 0, nil
}

func probeLoad32(ops int, m *meter) (uint64, error) {
	sram := mem.New(sramSize)
	auth := cap.New(0, sramSize, 0, cap.PermData)
	m.start()
	for i := 0; i < ops; i++ {
		v, err := sram.Load32(auth.WithAddress(uint32(i*4) & (sramSize - 1)))
		if err != nil {
			return 0, err
		}
		sinkU32 ^= v
	}
	m.stop()
	return 0, nil
}

// probeLoadCapFiltered loads stored capabilities through an authority
// without LG and LM, so every load deep-attenuates, and half of them point
// into freed (revoked) memory, so the load filter strips their tags.
func probeLoadCapFiltered(ops int, m *meter) (uint64, error) {
	const slots, live, freed = 1024, 64 << 10, 128 << 10
	sram := mem.New(sramSize)
	store := cap.New(0, sramSize, 0, cap.PermData|cap.PermStoreLocal)
	for i := uint32(0); i < slots; i++ {
		base := live + i*64
		if i%2 == 1 {
			base = freed + i*64
		}
		if err := sram.StoreCap(store.WithAddress(i*mem.Granule), cap.New(base, base+64, base, cap.PermData)); err != nil {
			return 0, err
		}
	}
	sram.Revoke(freed, slots*64)
	auth := cap.New(0, sramSize, 0, cap.PermGlobal|cap.PermLoad|cap.PermLoadStoreCap)
	m.start()
	for i := 0; i < ops; i++ {
		slot := uint32(i % slots)
		c, err := sram.LoadCap(auth.WithAddress(slot * mem.Granule))
		if err != nil {
			return 0, err
		}
		if c.Valid() == (slot%2 == 1) || c.Perms().HasAny(cap.PermStore|cap.PermGlobal) {
			return 0, fmt.Errorf("slot %d loaded as %v", slot, c)
		}
	}
	m.stop()
	return 0, nil
}

// bootDevice boots one fleet device image (the representative Go shape).
func bootDevice() (*core.System, error) {
	return core.BootWith(fleet.RepresentativeImage(fleet.Config{}), core.BootOptions{SkipReport: true})
}

// probeSweep runs the revoker's sweep over a booted device's whole SRAM.
func probeSweep(ops int, m *meter) (uint64, error) {
	s, err := bootDevice()
	if err != nil {
		return 0, err
	}
	defer s.Shutdown()
	sram := s.Board.Core.Mem
	m.start()
	for i := 0; i < ops; i++ {
		sinkU32 ^= sram.SweepGranules(0, sram.Granules())
	}
	m.stop()
	return 0, nil
}

// probeRestore materializes a booted device's SRAM from its snapshot, the
// per-device step of a snapshot fork.
func probeRestore(ops int, m *meter) (uint64, error) {
	s, err := bootDevice()
	if err != nil {
		return 0, err
	}
	defer s.Shutdown()
	snap := s.Board.Core.Mem.Snapshot()
	m.start()
	for i := 0; i < ops; i++ {
		sinkMem = snap.Restore()
	}
	m.stop()
	sinkMem = nil
	return 0, nil
}

// runImage boots an image with telemetry armed, as on a fleet device, and
// runs it until every thread exits.
func runImage(img *firmware.Image) error {
	s, err := core.Boot(img)
	if err != nil {
		return err
	}
	defer s.Shutdown()
	s.EnableTelemetry(0)
	return s.Run(nil)
}

func nop(api.Context, []api.Value) []api.Value { return nil }

// benchThread adds the thread that runs the "bench" compartment's main.
func benchThread(img *firmware.Image) {
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
}

// probeCall is the Fig. 6a compartment call: an empty callee that needs
// minStack bytes of stack, after one warm-up call as in the paper.
func probeCall(minStack uint32) func(int, *meter) (uint64, error) {
	return func(ops int, m *meter) (uint64, error) {
		var cycles uint64
		var callErr error
		img := core.NewImage("probe-call")
		img.AddCompartment(&firmware.Compartment{
			Name: "server", CodeSize: 128,
			Exports: []*firmware.Export{{Name: "fn", MinStack: minStack, Entry: nop}},
		})
		img.AddCompartment(&firmware.Compartment{
			Name: "bench", CodeSize: 128,
			Imports: []firmware.Import{{Kind: firmware.ImportCall, Target: "server", Entry: "fn"}},
			Exports: []*firmware.Export{{Name: "main", MinStack: 128,
				Entry: func(ctx api.Context, _ []api.Value) []api.Value {
					if _, callErr = ctx.Call("server", "fn"); callErr != nil {
						return nil
					}
					start := ctx.Now()
					m.start()
					for i := 0; i < ops; i++ {
						if _, callErr = ctx.Call("server", "fn"); callErr != nil {
							return nil
						}
					}
					m.stop()
					cycles = ctx.Now() - start
					return nil
				}}},
		})
		benchThread(img)
		if err := runImage(img); err != nil {
			return 0, err
		}
		return cycles, callErr
	}
}

func probeLibCall(ops int, m *meter) (uint64, error) {
	var cycles uint64
	img := core.NewImage("probe-libcall")
	img.AddLibrary(&firmware.Library{
		Name: "mathlib", CodeSize: 64,
		Funcs: []*firmware.Export{{Name: "id",
			Entry: func(_ api.Context, args []api.Value) []api.Value { return args }}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 128,
		Imports: []firmware.Import{{Kind: firmware.ImportLib, Target: "mathlib", Entry: "id"}},
		Exports: []*firmware.Export{{Name: "main", MinStack: 128,
			Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				start := ctx.Now()
				m.start()
				for i := 0; i < ops; i++ {
					ctx.LibCall("mathlib", "id", api.W(7))
				}
				m.stop()
				cycles = ctx.Now() - start
				return nil
			}}},
	})
	benchThread(img)
	return cycles, runImage(img)
}

// probeHandoff ping-pongs two equal-priority threads through two futex
// words; every round is two thread hand-offs, so an operation is half a
// round.
func probeHandoff(ops int, m *meter) (uint64, error) {
	rounds := (ops + 1) / 2
	var futexErr error
	wait := func(ctx api.Context, word cap.Capability, round uint32) {
		for {
			v := ctx.Load32(word)
			if v == round {
				return
			}
			rets, err := ctx.Call(sched.Name, sched.EntryFutexWait, api.C(word), api.W(v), api.W(0))
			if err != nil || api.ErrnoOf(rets) != api.OK {
				futexErr = fmt.Errorf("futex_wait: %v %v", err, api.ErrnoOf(rets))
				return
			}
		}
	}
	post := func(ctx api.Context, word cap.Capability, round uint32) {
		ctx.Store32(word, round)
		if _, err := ctx.Call(sched.Name, sched.EntryFutexWake, api.C(word), api.W(1)); err != nil {
			futexErr = fmt.Errorf("futex_wake: %v", err)
		}
	}
	words := func(ctx api.Context) (ping, pong cap.Capability) {
		g := ctx.Globals()
		return g.WithAddress(g.Base()), g.WithAddress(g.Base() + 4)
	}
	img := core.NewImage("probe-handoff")
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 256, DataSize: 16,
		Imports: sched.Imports(),
		Exports: []*firmware.Export{
			{Name: "main", MinStack: 256, Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				ping, pong := words(ctx)
				m.start()
				for r := uint32(1); r <= uint32(rounds) && futexErr == nil; r++ {
					post(ctx, ping, r)
					wait(ctx, pong, r)
				}
				m.stop()
				return nil
			}},
			{Name: "echo", MinStack: 256, Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				ping, pong := words(ctx)
				for r := uint32(1); r <= uint32(rounds) && futexErr == nil; r++ {
					wait(ctx, ping, r)
					post(ctx, pong, r)
				}
				return nil
			}},
		},
	})
	benchThread(img)
	img.AddThread(&firmware.Thread{Name: "echo", Compartment: "bench", Entry: "echo",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	if err := runImage(img); err != nil {
		return 0, err
	}
	return 0, futexErr
}

// probeIRQ is the Fig. 6a interrupt-latency measurement: a high-priority
// thread asks the revoker for an interrupt and sleeps on its futex while
// a low-priority thread keeps timestamping; the latency is the gap from
// the last low-priority timestamp to the high-priority thread running.
func probeIRQ(ops int, m *meter) (uint64, error) {
	var total, lowStamp uint64
	var irqErr error
	done := false
	img := core.NewImage("probe-irq")
	// A small SRAM keeps each revocation sweep short; the latency path is
	// size-independent.
	img.SRAM = 32 * 1024
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 256, DataSize: 16,
		Imports: append(sched.Imports(),
			firmware.Import{Kind: firmware.ImportMMIO, Target: firmware.DeviceRevoker}),
		Exports: []*firmware.Export{
			{Name: "main", MinStack: 512, Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				defer func() { done = true }()
				rets, err := ctx.Call(sched.Name, sched.EntryIRQFutex, api.W(uint32(hw.IRQRevoker)))
				if err != nil || api.ErrnoOf(rets) != api.OK {
					irqErr = fmt.Errorf("irq_futex: %v %v", err, api.ErrnoOf(rets))
					return nil
				}
				word := rets[1].Cap
				revoker := ctx.MMIO(firmware.DeviceRevoker)
				m.start()
				for i := 0; i < ops; i++ {
					seen := ctx.Load32(word)
					ctx.Store32(revoker.WithAddress(hw.RevokerBase+hw.RevokerGo), 1)
					rets, err := ctx.Call(sched.Name, sched.EntryFutexWait, api.C(word), api.W(seen), api.W(0))
					if err != nil || api.ErrnoOf(rets) != api.OK {
						irqErr = fmt.Errorf("futex_wait: %v %v", err, api.ErrnoOf(rets))
						return nil
					}
					total += ctx.Now() - lowStamp
				}
				m.stop()
				return nil
			}},
			{Name: "low", MinStack: 256, Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				for !done {
					lowStamp = ctx.Now()
					ctx.Work(8)
				}
				return nil
			}},
		},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "bench", Entry: "main",
		Priority: 9, StackSize: 4096, TrustedStackFrames: 8})
	img.AddThread(&firmware.Thread{Name: "low", Compartment: "bench", Entry: "low",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 4})
	if err := runImage(img); err != nil {
		return 0, err
	}
	return total, irqErr
}

// probeMallocFree allocates and frees 64 B objects, the size class of the
// netstack's per-packet buffers.
func probeMallocFree(ops int, m *meter) (uint64, error) {
	var allocErr error
	img := core.NewImage("probe-malloc")
	img.AddCompartment(&firmware.Compartment{
		Name: "bench", CodeSize: 256,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 230 * 1024}},
		Imports:   alloc.Imports(),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, _ []api.Value) []api.Value {
				cl := alloc.Client{}
				m.start()
				for i := 0; i < ops; i++ {
					obj, errno := cl.Malloc(ctx, 64)
					if errno != api.OK {
						allocErr = fmt.Errorf("malloc #%d: %v", i, errno)
						return nil
					}
					if errno := cl.Free(ctx, obj); errno != api.OK {
						allocErr = fmt.Errorf("free #%d: %v", i, errno)
						return nil
					}
				}
				m.stop()
				return nil
			}}},
	})
	benchThread(img)
	if err := runImage(img); err != nil {
		return 0, err
	}
	return 0, allocErr
}

// deviceImages builds n fleet device images up front, so a boot probe
// times booting alone.
func deviceImages(n int) []*firmware.Image {
	imgs := make([]*firmware.Image, n)
	for i := range imgs {
		imgs[i] = fleet.RepresentativeImage(fleet.Config{})
	}
	return imgs
}

// bootAll times boot over every image and shuts the systems down after.
func bootAll(imgs []*firmware.Image, m *meter, boot func(*firmware.Image) (*core.System, error)) error {
	systems := make([]*core.System, 0, len(imgs))
	defer func() {
		for _, s := range systems {
			s.Shutdown()
		}
	}()
	m.start()
	for _, img := range imgs {
		s, err := boot(img)
		if err != nil {
			return err
		}
		systems = append(systems, s)
	}
	m.stop()
	return nil
}

func probeColdBoot(ops int, m *meter) (uint64, error) {
	return 0, bootAll(deviceImages(ops), m, func(img *firmware.Image) (*core.System, error) {
		return core.BootWith(img, core.BootOptions{SkipReport: true})
	})
}

func probeFork(ops int, m *meter) (uint64, error) {
	opts := core.BootOptions{SkipReport: true}
	tmplSys, tmpl, err := snapshot.Capture(fleet.RepresentativeImage(fleet.Config{}), opts)
	if err != nil {
		return 0, err
	}
	defer tmplSys.Shutdown()
	return 0, bootAll(deviceImages(ops), m, func(img *firmware.Image) (*core.System, error) {
		return tmpl.Fork(img, opts)
	})
}

func probeMQTT(ops int, m *meter) (uint64, error) {
	pkt := netproto.MQTTPacket{Type: netproto.MQTTPublish, Topic: "fleet/123", Payload: make([]byte, 32)}
	m.start()
	for i := 0; i < ops; i++ {
		p, err := netproto.DecodeMQTT(netproto.EncodeMQTT(pkt))
		if err != nil {
			return 0, err
		}
		sinkU32 ^= uint32(len(p.Payload))
	}
	m.stop()
	return 0, nil
}

// probeTLS seals a record on one side and opens it on the other.
func probeTLS(n int) func(int, *meter) (uint64, error) {
	return func(ops int, m *meter) (uint64, error) {
		key := netproto.SessionKey([]byte("root-secret"), make([]byte, 16), make([]byte, 16))
		tx, rx := netproto.NewSession(key), netproto.NewSession(key)
		plain := make([]byte, n)
		m.start()
		for i := 0; i < ops; i++ {
			out, err := rx.Open(tx.Seal(plain))
			if err != nil {
				return 0, err
			}
			sinkU32 ^= uint32(len(out))
		}
		m.stop()
		return 0, nil
	}
}

var (
	probeDeviceIP = netproto.IPv4(10, 4, 0, 2)
	probeBrokerIP = netproto.IPv4(10, 0, 0, 10)
)

// tcpFrame is a device-bound MQTT-over-TCP frame with a 64 B payload.
func tcpFrame(seq uint32) []byte {
	return netproto.EncodeHeader(
		netproto.Header{Dst: probeDeviceIP, Src: probeBrokerIP, Proto: netproto.ProtoTCP},
		netproto.EncodeTCP(netproto.TCP{SrcPort: netproto.PortMQTT, DstPort: 49152, Seq: seq,
			Data: make([]byte, 64)}))
}

func probeTCP(ops int, m *meter) (uint64, error) {
	m.start()
	for i := 0; i < ops; i++ {
		_, payload, err := netproto.DecodeHeader(tcpFrame(uint32(i)))
		if err != nil {
			return 0, err
		}
		t, err := netproto.DecodeTCP(payload)
		if err != nil {
			return 0, err
		}
		sinkU32 ^= t.Seq
	}
	m.stop()
	return 0, nil
}

// probePump is the cloud-to-device path of a fleet World: another
// goroutine queues frames with SendToDevice while the owner pumps the
// inbox, advances the clock past the link latency, and drains the
// adaptor's receive queue into SRAM.
func probePump(ops int, m *meter) (uint64, error) {
	c := hw.NewCore(sramSize, 0)
	nic := hw.NewNetAdaptor(c)
	w := netsim.NewWorld(c, nic, probeDeviceIP)
	w.SetConcurrent(true)
	frame := tcpFrame(1)
	m.start()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < ops; i++ {
			w.SendToDevice(frame)
		}
	}()
	for got := 0; got < ops; {
		if w.PumpInbox() == 0 {
			runtime.Gosched()
		}
		c.Tick(w.Latency)
		for nic.LoadWord(hw.NetRxStatus) > 0 {
			nic.StoreWord(hw.NetRxAddr, 0x1000)
			got++
		}
	}
	<-done
	m.stop()
	return 0, nil
}
