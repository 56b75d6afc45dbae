package netstack_test

import (
	"runtime"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netstack"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// TestSteadyPublishAllocations pins the host allocations of a steady-state
// publish: a device connected to the broker, warmed up, then publishes N
// times, each crossing the MQTT, TLS, TCP/IP and firewall compartments,
// the adaptor, the World and the broker's ingress. Every layer works in
// buffers it already owns, so a publish allocates at most 2 objects on
// the host.
func TestSteadyPublishAllocations(t *testing.T) {
	const (
		warm     = 20
		measured = 200
		maxPer   = 2.0
	)
	var mallocs uint64
	var failed string
	r := buildRig(t, func(ctx api.Context, args []api.Value) []api.Value {
		quota := ctx.SealedImport("default")
		rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTConnect,
			api.C(quota), api.W(brokerIP), api.W(netproto.PortMQTT), api.W(10_000_000))
		if err != nil || api.ErrnoOf(rets) != api.OK {
			failed = "mqtt connect failed"
			return nil
		}
		handle := rets[1]
		topic := ctx.StackAlloc(16)
		ctx.StoreBytes(topic, []byte("fleet/dev-0002"))
		tview, _ := topic.SetBounds(uint32(len("fleet/dev-0002")))
		payload := ctx.StackAlloc(32)
		pview, _ := payload.SetBounds(24)
		publish := func(n int) bool {
			for i := 0; i < n; i++ {
				ctx.Store32(payload, uint32(i))
				rets, err := ctx.Call(netstack.MQTT, netstack.FnMQTTPublish, handle, api.C(tview), api.C(pview))
				if err != nil || api.ErrnoOf(rets) != api.OK {
					failed = "publish failed"
					return false
				}
			}
			// Let the last frames cross the link into the broker.
			_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(200_000))
			return true
		}
		if !publish(warm) {
			return nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if !publish(measured) {
			return nil
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
		return nil
	}, firmware.Import{Kind: firmware.ImportCall, Target: sched.Name, Entry: sched.EntrySleep})
	r.run(t, 3_000_000_000)
	if failed != "" {
		t.Fatal(failed)
	}
	if got := r.broker.Publishes; got != warm+measured {
		t.Fatalf("broker saw %d publishes, want %d", got, warm+measured)
	}
	per := float64(mallocs) / measured
	t.Logf("%.2f host allocations per publish", per)
	if per > maxPer {
		t.Fatalf("a steady-state publish allocates %.2f host objects, want at most %.0f", per, maxPer)
	}
}
