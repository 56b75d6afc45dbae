package fleet

import (
	"fmt"
	"time"

	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/cloud"
	"github.com/cheriot-go/cheriot/internal/compartment"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
	"github.com/cheriot-go/cheriot/internal/netstack"
	"github.com/cheriot-go/cheriot/internal/prng"
	"github.com/cheriot-go/cheriot/internal/prof"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/switcher"
	"github.com/cheriot-go/cheriot/internal/telemetry"
)

const secondCycles = hw.DefaultHz

// Histogram bucket bounds for the fleet's latency distributions, which
// summarize fills from DeviceStats' exact samples. Connect latency is
// dominated by the modeled TLS handshake (~330 M cycles, ~10 s at 33 MHz)
// plus retries under fault injection; publish latency is the device-side
// send path (TLS record crypto + socket send), orders of magnitude
// smaller.
var (
	FleetConnectBuckets = []uint64{
		330_000_000, 335_000_000, 340_000_000, 350_000_000, 375_000_000,
		400_000_000, 500_000_000, 750_000_000, 1_500_000_000,
	}
	FleetPublishBuckets = []uint64{
		5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 5_000_000,
	}
)

// DeviceStats is what one device's application records. Written only by
// the device's app thread and event hooks (which run strictly interleaved
// with its kernel on the owning shard goroutine); read after the shards
// join.
type DeviceStats struct {
	SetupFailures   uint64
	Connects        uint64
	ConnectFailures uint64
	Reconnects      uint64
	Publishes       uint64
	PublishErrors   uint64

	// Cloud-initiated event accounting (see cloud.Schedule).
	FanoutDelivered   uint64
	FanoutMissed      uint64
	CommandsDelivered uint64
	FailoverKicks     uint64
	// Notifications counts cloud publishes the app drained end-to-end.
	Notifications uint64

	// Quota-storm accounting (see Config.QuotaStormAt): allocations the
	// storm obtained, allocator refusals, and publishes completed while
	// the quota was exhausted.
	StormAllocs    uint64
	StormDenied    uint64
	StormPublishes uint64

	// PublishSeconds[t] counts successful publishes during simulated
	// second t — the raw material of the fleet availability curve.
	PublishSeconds []uint32

	// Latency samples in cycles, kept exact: the fleet reports their
	// true percentiles and buckets them once for its telemetry.
	ConnectLatency []uint64
	PublishLatency []uint64
}

// Device is one simulated CHERIoT board: its own SRAM, capability core,
// firmware (its shape's image: full netstack + the fleet app), and World
// wired to the shared cloud. Its kernel's Env is the Device.
type Device struct {
	Index int
	IP    uint32
	Topic string
	// Profile is the device's resolved load profile (rate, payload,
	// churn, firmware shape).
	Profile Profile

	Sys   *core.System
	World *netsim.World
	Tel   *telemetry.Registry
	// Prof is the device's cycle-exact profiler (nil unless Config.Prof).
	Prof *prof.Profiler
	// Rec is the device's flight recorder (nil when disabled).
	Rec *flightrec.Recorder
	// Obs is the device's message tracer (nil unless Config.Obs). Every
	// span it records is written on this device's goroutine.
	Obs   *fleetobs.Tracer
	Stats DeviceStats
	// Err records a run failure (e.g. kernel deadlock); nil for devices
	// that reached the horizon.
	Err error

	// Partitioned marks devices homed on the broker-partition fault's
	// victim shard; SkewMillis is the device's seeded wall-clock skew
	// (both zero when the respective fault is unarmed).
	Partitioned bool
	SkewMillis  int64

	// OTA rollout state (see internal/ota and rollout.go). OnNewFirmware
	// marks a device currently running the updated image; UpdatedAtCycle
	// is when it micro-rebooted into it; RolledBack marks devices the
	// auto-rollback returned to the old image.
	OnNewFirmware  bool
	RolledBack     bool
	UpdatedAtCycle uint64

	cfg     *Config
	rng     *prng.SplitMix
	arrival uint64 // cycles to wait before starting setup
	// pool lends every incarnation's threads their runners: its shard's
	// pool, shared by all the shard's devices.
	pool *switcher.Pool

	// incarnation counts firmware swaps (0 = the boot image), sh is the
	// running one's shape, closed holds one record per ended incarnation,
	// recs every incarnation's flight recorder.
	incarnation int
	sh          *shape
	closed      []incarnationRecord
	recs        []*flightrec.Recorder
	// stormDone marks a device whose quota storm has run; like Stats it
	// outlives firmware swaps, so the storm runs once per device.
	stormDone bool

	// Host-profiling pump sampling (Config.HostProf): timing every inbox
	// pump would distort the very cost it measures, so runSlice times one
	// in 64 and the runner scales the sample up.
	pumpCount   uint64
	pumpSampled uint64
	pumpWall    time.Duration

	// bootWall is the wall-clock cost of System construction alone
	// (snapshot fork, or cold loader boot under NoSnapshot); the runner
	// reports the build phase's as the boot/fork or boot/cold
	// host-profile sub-phase.
	bootWall time.Duration
}

// deviceIP maps a device index into 10.4.0.0/16, disjoint from the cloud
// addresses.
func deviceIP(i int) uint32 {
	n := i + 2 // skip .0.0 and .0.1
	return netproto.IPv4(10, 4, byte(n>>8), byte(n))
}

// buildDevice makes the device's seeded per-device draws (arrival,
// partition victim, clock skew, tracer stream) and brings up its boot
// image, the launched shape of its profile's firmware, on pool's runners.
func buildDevice(cfg *Config, pl *cloud.Plane, schedule []cloud.Event, shapes []*shape, i int, pool *switcher.Pool) (*Device, error) {
	d := &Device{
		Index:   i,
		IP:      deviceIP(i),
		Topic:   fmt.Sprintf("fleet/%d", i),
		Profile: cfg.profileFor(i),
		// Broker partition: devices homed on the victim shard lose their
		// link to it for the window (partitionShard is -1 when unarmed).
		Partitioned: pl.HomeShard(i) == cfg.partitionShard(),
		SkewMillis:  cfg.skewMillisFor(i),
		cfg:         cfg,
		rng:         prng.NewSplitMix(cfg.Seed, uint64(i)),
		pool:        pool,
	}
	if spread := cfg.arrivalSpreadCycles(); spread > 0 {
		d.arrival = d.rng.Below(spread)
	}

	if cfg.Obs {
		d.Obs = fleetobs.NewTracer(fleetobs.TracerConfig{
			Device:     i,
			Hz:         hw.DefaultHz,
			SampleRate: cfg.obsSampleRate(),
			MaxSpans:   cfg.ObsSpanCap,
			Seed:       prng.NewSplitMix(cfg.Seed, uint64(i)+3<<32).Next(),
			DeviceOf:   deviceIndexOf,
		})
	}
	if err := d.bringUp(pl, schedule, 0, shapeFor(shapes, d.Profile.Firmware, false)); err != nil {
		return nil, fmt.Errorf("device %d: %w", i, err)
	}
	return d, nil
}

// bringUp starts one incarnation of the device at cycle start: 0 for the
// boot image, the retirement cycle for a firmware swap. Every incarnation
// is wired the same way: boot shape sh's audited image (sh.boot); bind
// the device as Env; jump a swapped-in core to start so the device keeps
// one absolute cycle timeline; attach the World and cloud, arm the
// instruments and faults, and install the cloud schedule's events after
// start.
func (d *Device) bringUp(pl *cloud.Plane, schedule []cloud.Event, start uint64, sh *shape) error {
	cfg := d.cfg
	t0 := time.Now()
	sys, err := sh.boot()
	d.bootWall += time.Since(t0)
	if err != nil {
		return fmt.Errorf("boot %s: %w", sh.name(), err)
	}
	if start > 0 {
		// A fresh System's clock starts at zero with no pending events,
		// so SkipTo is a pure jump.
		sys.Board.Core.SkipTo(start)
	}
	sys.Kernel.SetPool(d.pool)
	sys.Kernel.Env = d
	d.Sys, d.sh = sys, sh
	d.World = netsim.NewWorld(sys.Board.Core, sys.Board.Net, d.IP)
	d.World.SetConcurrent(true)
	if d.Obs != nil {
		d.World.SetObserver(d.Obs)
	}
	attachCloud(d.World, pl, d.IP)

	// Instruments arm after the jump, so each incarnation's base is its
	// start cycle, and the profiler arms at the same instant as telemetry
	// (no intervening ticks), so the profile total equals the telemetry
	// attributed cycles.
	d.Tel = sys.EnableTelemetry(cfg.TraceCapacity)
	if cfg.Prof {
		d.Prof = sys.EnableProfiler()
	}
	if cfg.FlightRecorder > 0 {
		d.Rec = sys.EnableFlightRecorder(cfg.FlightRecorder)
		d.Rec.SetDevice(fmt.Sprintf("fleet-%05d", d.Index))
		d.recs = append(d.recs, d.Rec)
	}
	d.armFaults(pl, start)
	d.installCloudSchedule(pl, schedule, start)
	return nil
}

// armFaults arms the configured faults on the incarnation that starts at
// cycle start. Link faults draw a fresh stream per incarnation (1 for
// the boot image, 7+n after the n-th swap): a retired stream's position
// is not replayable, but a fixed derivation is just as deterministic.
// The partition window and the ping of death are absolute cycles, so a
// later incarnation keeps a still-open window and skips a ping of death
// already behind it.
func (d *Device) armFaults(pl *cloud.Plane, start uint64) {
	cfg := d.cfg
	if cfg.DropRate > 0 || cfg.JitterCycles > 0 {
		stream := uint64(1)
		if d.incarnation > 0 {
			stream = uint64(7 + d.incarnation)
		}
		d.World.SetLinkFaults(cfg.DropRate, cfg.JitterCycles,
			prng.NewSplitMix(cfg.Seed, uint64(d.Index)+stream<<32).Next())
	}
	if d.Partitioned {
		from, until := cfg.partitionWindow()
		d.World.SetPartition(pl.HomeIP(d.Index), from, until)
	}
	d.World.SetNTPSkew(d.SkewMillis)
	if at := durationCycles(cfg.PingOfDeathAt); at > start {
		// The §5.3.3 fault campaign: one malformed frame per device at a
		// fixed simulated time, on the device's own clock so the injection
		// is deterministic in every run mode. The spoofed source must be
		// the device's home broker, or the ingress filter discards it.
		spoof := pl.HomeIP(d.Index)
		d.Sys.Board.Core.At(at, func() {
			d.World.InjectRaw(d.World.PingOfDeath(spoof))
		})
	}
}

// incarnationRecord is what one ended incarnation leaves for the
// Summary: its telemetry snapshot and closed profiler, whose tree the
// fleet merges at the end, whether both still sum to the clock, its
// World's link counters and its micro-reboots.
type incarnationRecord struct {
	tel                         telemetry.Snapshot
	prof                        *prof.Profiler // nil unless Config.Prof
	exact                       bool
	framesFrom, framesTo, drops uint64
	reboots                     int
}

// closeIncarnation records the running incarnation and shuts its System
// down, which gives its threads' runners back to the device's pool: at a
// firmware swap, and for every device's last incarnation right after its
// shard ran it to the horizon. The fields naming the running incarnation
// (Sys, World, Tel, Rec, ...) keep pointing at it.
func (d *Device) closeIncarnation() {
	now, k := d.Sys.Cycles(), d.Sys.Kernel
	r := incarnationRecord{
		tel:        d.Tel.Snapshot(),
		framesFrom: d.World.FramesFromDevice,
		framesTo:   d.World.FramesToDevice,
		drops:      d.World.Dropped,
		reboots:    k.Comp(netstack.TCPIP).Reboots(),
	}
	r.exact = r.tel.BaseCycles+r.tel.AttributedCycles == now
	if d.cfg.Prof {
		r.prof = d.Prof
		r.exact = r.exact && d.Prof.Close()
	}
	if d.sh.ota {
		r.reboots += k.Comp(otaCompartment).Reboots()
	}
	d.closed = append(d.closed, r)
	d.Sys.Shutdown()
}

// installCloudSchedule expands the cloud event schedule onto this
// device's own event queue; the hooks run on the device goroutine, so
// DeviceStats stays single-writer. Events at or before `after` are
// skipped: a firmware swap re-installs the schedule on the replacement
// incarnation's core, and events the retired incarnation already fired
// must not fire twice.
func (d *Device) installCloudSchedule(pl *cloud.Plane, schedule []cloud.Event, after uint64) {
	if len(schedule) == 0 {
		return
	}
	if after > 0 {
		future := make([]cloud.Event, 0, len(schedule))
		for _, ev := range schedule {
			if ev.At > after {
				future = append(future, ev)
			}
		}
		schedule = future
	}
	homeShard := pl.HomeShard(d.Index)
	cloud.InstallOnDevice(d.Sys.Board.Core, pl, d.Index, d.IP, schedule,
		func(ev cloud.Event, ok bool) {
			if ok && ev.TraceID != 0 {
				// The hook runs on this device's goroutine at its own
				// clock: the cloud→device delivery hop is recorded here.
				d.Obs.CloudDeliverSpan(ev.TraceID, homeShard, d.World.Now())
			}
			switch ev.Kind {
			case cloud.EventFanout:
				if ok {
					d.Stats.FanoutDelivered++
				} else {
					d.Stats.FanoutMissed++
				}
			case cloud.EventCommand:
				if ok {
					d.Stats.CommandsDelivered++
				}
			case cloud.EventFailover:
				if ok {
					d.Stats.FailoverKicks++
				}
			}
		})
}

// Tracer implements netstack.Tracing.
func (d *Device) Tracer() *fleetobs.Tracer { return d.Obs }

// buildImage assembles a firmware shape's image: the full netstack plus
// the application compartment, and, for the OTA-updated shape, the
// update-agent compartment. It holds no per-device value (entries read
// the Device from Env, the address comes from DHCP), so every device
// incarnation of the shape boots the one image the launch builds.
func buildImage(cfg *Config, sh *shape) *firmware.Image {
	img := core.NewImage(sh.name())
	netstack.AddTo(img, netstack.Config{
		UseDHCP:    true,
		GatewayIP:  GatewayIP,
		DNSServer:  DNSIP,
		NTPServer:  NTPIP,
		RootSecret: RootSecret,
	})
	if sh.firmware == FirmwareJS {
		addJSApp(img, cfg)
	} else {
		addApp(img, cfg, sh.ota)
	}
	return img
}

// runSlice advances the device to toCycle (or a little past it: the
// kernel only samples the stop condition between dispatches). The stop
// callback also pumps the World inbox, so frames queued by the shared
// cloud from other goroutines enter this device's event queue at the
// next dispatch boundary.
func (d *Device) runSlice(toCycle uint64) error {
	if d.cfg.HostProf {
		return d.Sys.Run(func() bool {
			d.pumpCount++
			if d.pumpCount&63 == 1 {
				t0 := time.Now()
				d.World.PumpInbox()
				d.pumpWall += time.Since(t0)
				d.pumpSampled++
			} else {
				d.World.PumpInbox()
			}
			return d.Sys.Cycles() >= toCycle
		})
	}
	return d.Sys.Run(func() bool {
		d.World.PumpInbox()
		return d.Sys.Cycles() >= toCycle
	})
}

// pumpEstimate scales the sampled pump time up to the device's full pump
// count.
func (d *Device) pumpEstimate() time.Duration {
	if d.pumpSampled == 0 {
		return 0
	}
	return time.Duration(uint64(d.pumpWall) / d.pumpSampled * d.pumpCount)
}

// addApp registers the load-generating application compartment: after an
// arrival delay, bring the network up (DHCP), SNTP-sync, resolve the
// broker, connect + subscribe over MQTT/TLS, then publish at the
// configured rate forever (the fleet horizon ends the run), reconnecting
// on error and — with ReconnectEvery — churning deliberately. The OTA
// rollout's updated image adds the update-agent compartment, which the
// app pokes after every publish.
func addApp(img *firmware.Image, cfg *Config, withOTA bool) {
	imports := fleetAppImports(cfg.quotaStormCycles() > 0)
	if withOTA {
		addUpdateAgent(img, cfg)
		imports = append(imports,
			firmware.Import{Kind: firmware.ImportCall, Target: otaCompartment, Entry: otaEntryPoke})
	}
	img.AddCompartment(&firmware.Compartment{
		Name: "fleetapp", CodeSize: 3000, DataSize: 256,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 16384}},
		Imports:   imports,
		Exports:   []*firmware.Export{{Name: "main", MinStack: 8192, Entry: appMain}},
	})
	img.AddThread(&firmware.Thread{Name: "app", Compartment: "fleetapp", Entry: "main",
		Priority: 3, StackSize: 32 * 1024, TrustedStackFrames: 24})
}

// otaCompartment is the update-agent compartment that only the OTA
// rollout's updated firmware image carries; adding it changes the
// image's shape key, so the updated fleet forks from its own snapshot
// template. otaEntryPoke is its single export: a per-publish
// self-check the fleet app calls.
const (
	otaCompartment = "otaupd"
	otaEntryPoke   = "poke"
)

// addUpdateAgent adds the update-agent compartment: no quota, no
// netstack access (so the fleet policy still passes), one poke export,
// and its own micro-reboot error handler. A poisoned rollout image
// makes poke store out of bounds: the trap raises a flight-recorder
// crash report, the handler micro-reboots the agent, and the calling
// publish loop sees an unwound call — compartment isolation keeps the
// bad update from taking the device down.
func addUpdateAgent(img *firmware.Image, cfg *Config) {
	poisoned := cfg.Rollout != nil && cfg.Rollout.Poisoned
	img.AddCompartment(&firmware.Compartment{
		Name: otaCompartment, CodeSize: 900, DataSize: 64,
		Exports: []*firmware.Export{{Name: otaEntryPoke, MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				if poisoned {
					g := ctx.Globals()
					ctx.Store32(g.WithAddress(g.Top()+64), 0xbad) // out of bounds: traps
				}
				ctx.Work(500)
				return api.EV(api.OK)
			}}},
		ErrorHandler: compartment.RebootHandler("", nil),
	})
}

// crashReports returns every flight-recorder crash report the device
// produced, across its incarnations in order.
func (d *Device) crashReports() []flightrec.Report {
	var out []flightrec.Report
	for _, r := range d.recs {
		out = append(out, r.Reports()...)
	}
	return out
}

// crashTotal is the lifetime crash-report count across incarnations.
func (d *Device) crashTotal() uint64 {
	var n uint64
	for _, r := range d.recs {
		n += r.ReportsTotal()
	}
	return n
}

// CrashDumps returns the flight-recorder dump of each of the device's
// incarnations that raised a crash report, boot image first. A firmware
// swap retires an incarnation, not its recorder, so a crash the swap
// outlived is still here.
func (d *Device) CrashDumps() []flightrec.Dump {
	var dumps []flightrec.Dump
	for _, r := range d.recs {
		if r.ReportsTotal() > 0 {
			dumps = append(dumps, r.Snapshot(hw.DefaultHz))
		}
	}
	return dumps
}

// fleetAppImports is the app compartment's import set: DNS, SNTP, MQTT,
// the scheduler, and network bring-up — and nothing else, which is what
// the fleet audit policy pins down. The quota-exhaustion storm adds the
// allocator (still policy-clean: the policy forbids the firewall and
// TCP/IP, not the allocator); unarmed configs keep the image unchanged.
func fleetAppImports(withAlloc bool) []firmware.Import {
	imports := append(netstack.DNSImports(), netstack.SNTPImports()...)
	imports = append(imports, netstack.MQTTImports()...)
	imports = append(imports, sched.Imports()...)
	if withAlloc {
		imports = append(imports, alloc.Imports()...)
	}
	return append(imports, firmware.Import{
		Kind: firmware.ImportCall, Target: netstack.NetAPI, Entry: netstack.FnNetworkUp})
}

// appMain is the Go fleet app's thread entry, for the device bound to the
// machine.
func appMain(ctx api.Context, args []api.Value) []api.Value {
	a := newAppDriver(ctx)
	if !a.setup() {
		return a.park()
	}
	if !a.connect() {
		a.st.SetupFailures++
		return a.park()
	}
	// Steady state: publish at the profile's rate with ±12.5% seeded
	// jitter until the fleet horizon stops the kernel.
	for a.tick() {
	}
	return a.park()
}

// appDriver is the device application's logic, shared between the Go
// fleet app (appMain drives it directly) and the jsvm fleet app (a
// JavaScript program drives it through host-function bindings).
type appDriver struct {
	d   *Device
	ctx api.Context
	st  *DeviceStats

	brokerAddr uint32
	handle     api.Value
	interval   uint64
	published  uint64

	topicView   cap.Capability
	payloadView cap.Capability
	bcastView   cap.Capability
	cmdView     cap.Capability
	drainView   cap.Capability
}

// newAppDriver drives the app for the device the machine's Env holds.
func newAppDriver(ctx api.Context) *appDriver {
	d := ctx.Env().(*Device)
	return &appDriver{d: d, ctx: ctx, st: &d.Stats}
}

func (a *appDriver) quota() cap.Capability { return a.ctx.SealedImport("default") }

func (a *appDriver) sleep(cycles uint64) {
	for cycles > 0 {
		n := uint64(0xffff_ffff)
		if n > cycles {
			n = cycles
		}
		_, _ = a.ctx.Call(sched.Name, sched.EntrySleep, api.W(uint32(n)))
		cycles -= n
	}
}

// park idles a failed device without exiting: the driver thread blocks on
// IRQs, and a returned app thread would leave the kernel with no pending
// events (a reported deadlock) instead of an idle machine.
func (a *appDriver) park() []api.Value {
	for {
		a.sleep(10 * secondCycles)
	}
}

// stage copies b into a fresh stack buffer with exact bounds. Stack
// allocations within this frame are never reclaimed, so setup stages
// every buffer the steady loop needs exactly once.
func (a *appDriver) stage(b []byte) cap.Capability {
	buf := a.ctx.StackAlloc(uint32(len(b)))
	a.ctx.StoreBytes(buf, b)
	view, _ := buf.SetBounds(uint32(len(b)))
	return view
}

// setup runs the bring-up sequence: arrival delay, DHCP through the
// firewall's bootstrap window, SNTP, broker resolution, and staging of
// the steady-state buffers. Returns false (after counting a setup
// failure) when the device cannot come up.
func (a *appDriver) setup() bool {
	ctx, d, st := a.ctx, a.d, a.st
	if d.arrival > 0 {
		a.sleep(d.arrival)
	}

	// Network bring-up: retries cover frames lost to fault injection.
	up := false
	for try := 0; try < 30; try++ {
		rets, err := ctx.Call(netstack.NetAPI, netstack.FnNetworkUp, api.W(0))
		if err == nil && api.ErrnoOf(rets) == api.OK {
			up = true
			break
		}
		a.sleep(secondCycles / 5)
	}
	if !up {
		st.SetupFailures++
		return false
	}

	// Clock sync; tolerated to fail under heavy drop rates (the device
	// can still publish).
	for try := 0; try < 3; try++ {
		rets, err := ctx.Call(netstack.SNTP, netstack.FnSNTPSync)
		if err == nil && api.ErrnoOf(rets) == api.OK {
			break
		}
		a.sleep(secondCycles / 5)
	}

	// Resolve the broker; the control plane's DNS answers with this
	// device's home shard.
	for try := 0; try < 30 && a.brokerAddr == 0; try++ {
		rets, err := ctx.Call(netstack.DNS, netstack.FnDNSResolve, api.C(a.stage([]byte(BrokerName))))
		if err == nil && api.ErrnoOf(rets) == api.OK {
			a.brokerAddr = rets[1].AsWord()
			break
		}
		a.sleep(secondCycles / 2)
	}
	if a.brokerAddr == 0 {
		st.SetupFailures++
		return false
	}

	a.topicView = a.stage([]byte(d.Topic))
	payload := make([]byte, d.Profile.PublishBytes)
	for i := range payload {
		payload[i] = byte(d.Index + i)
	}
	a.payloadView = a.stage(payload)
	a.interval = uint64(float64(secondCycles) / d.Profile.PublishRate)
	if d.cfg.fanoutEnabled() {
		a.bcastView = a.stage([]byte(cloud.BroadcastTopic))
		a.cmdView = a.stage([]byte(cloud.CommandTopic(d.Index)))
		a.drainView = a.stage(make([]byte, 128))
	}
	return true
}

// connect establishes an MQTT/TLS session and subscribes to the device's
// topics (its own, plus the broadcast and command topics when cloud
// fan-out is on), with bounded retries.
func (a *appDriver) connect() bool {
	ctx, st := a.ctx, a.st
	for try := 0; try < 10; try++ {
		t0 := ctx.Now()
		rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTConnect,
			api.C(a.quota()), api.W(a.brokerAddr), api.W(netproto.PortMQTT), api.W(20_000_000))
		if err == nil && api.ErrnoOf(rets) == api.OK {
			h := rets[1]
			if a.subscribeAll(h) {
				a.handle = h
				lat := ctx.Now() - t0
				st.Connects++
				st.ConnectLatency = append(st.ConnectLatency, lat)
				return true
			}
			_, _ = ctx.Call(netstack.MQTT, netstack.FnMQTTClose, api.C(a.quota()), h)
		}
		st.ConnectFailures++
		a.sleep(secondCycles / 2)
	}
	return false
}

func (a *appDriver) subscribeAll(h api.Value) bool {
	views := []cap.Capability{a.topicView}
	if a.d.cfg.fanoutEnabled() {
		views = append(views, a.bcastView, a.cmdView)
	}
	for _, v := range views {
		rets, err := a.ctx.Call(netstack.MQTT, netstack.FnMQTTSubscribe,
			h, api.C(v), api.W(20_000_000))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			return false
		}
	}
	return true
}

func (a *appDriver) disconnect() {
	if a.handle.IsCap {
		_, _ = a.ctx.Call(netstack.MQTT, netstack.FnMQTTClose, api.C(a.quota()), a.handle)
		a.handle = api.Value{}
	}
}

// tick is one steady-state iteration: jittered sleep, deliberate churn,
// one publish (with error-driven reconnect), and a notification drain.
// Returns false when the device failed permanently and should park.
func (a *appDriver) tick() bool {
	ctx, d, st := a.ctx, a.d, a.st
	a.sleep(a.interval - a.interval/8 + d.rng.Below(a.interval/4+1))
	if at := d.cfg.quotaStormCycles(); at > 0 && !d.stormDone && ctx.Now() >= at {
		d.stormDone = true
		a.quotaStorm()
	}
	if churn := d.Profile.ReconnectEvery; churn > 0 && a.published > 0 &&
		a.published%uint64(churn) == 0 {
		a.published = 0 // avoid re-triggering before the next publish
		a.disconnect()
		st.Reconnects++
		if !a.connect() {
			return false
		}
	}
	t0 := ctx.Now()
	rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTPublish,
		a.handle, api.C(a.topicView), api.C(a.payloadView))
	if err == nil && api.ErrnoOf(rets) == api.OK {
		lat := ctx.Now() - t0
		st.Publishes++
		a.published++
		st.PublishLatency = append(st.PublishLatency, lat)
		a.markPublishSecond()
		if d.sh.ota {
			// The updated image's update-agent self-check; a poisoned
			// agent traps, is micro-rebooted by its own handler, and the
			// call unwinds — the publish loop tolerates the error and
			// carries on.
			_, _ = ctx.Call(otaCompartment, otaEntryPoke)
		}
		if d.cfg.fanoutEnabled() {
			a.drain()
		}
		return true
	}
	st.PublishErrors++
	a.disconnect()
	st.Reconnects++
	return a.connect()
}

// markPublishSecond records a successful publish in the availability
// curve's per-second buckets.
func (a *appDriver) markPublishSecond() {
	sec := int(a.ctx.Now() / secondCycles)
	for len(a.st.PublishSeconds) <= sec {
		a.st.PublishSeconds = append(a.st.PublishSeconds, 0)
	}
	a.st.PublishSeconds[sec]++
}

// quotaStorm is the quota-exhaustion fault: allocate from the app's own
// quota until the allocator refuses, publish once while exhausted (the
// app's memory pressure must not take the established session down —
// the netstack compartments run on their own quotas), then free every
// storm allocation. The flight recorder's live-allocation view is how
// the post-run leak fixture proves nothing stayed behind.
func (a *appDriver) quotaStorm() {
	cl := alloc.Client{AllocCap: "default"}
	var held []cap.Capability
	for len(held) < 256 {
		c, e := cl.Malloc(a.ctx, 1024)
		if e != api.OK {
			a.st.StormDenied++
			break
		}
		held = append(held, c)
	}
	a.st.StormAllocs += uint64(len(held))
	rets, err := a.ctx.Call(netstack.MQTT, netstack.FnMQTTPublish,
		a.handle, api.C(a.topicView), api.C(a.payloadView))
	if err == nil && api.ErrnoOf(rets) == api.OK {
		a.st.StormPublishes++
		a.st.Publishes++
		a.published++
		a.markPublishSecond()
	}
	for _, c := range held {
		cl.Free(a.ctx, c)
	}
}

// drain pulls queued cloud notifications (fan-outs, commands) with a
// short timeout, counting end-to-end deliveries. Bounded so a burst
// cannot starve the publish loop.
func (a *appDriver) drain() {
	for i := 0; i < 8; i++ {
		rets, err := a.ctx.Call(netstack.MQTT, netstack.FnMQTTWait,
			a.handle, api.C(a.drainView), api.W(50_000))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			return
		}
		a.st.Notifications++
	}
}
