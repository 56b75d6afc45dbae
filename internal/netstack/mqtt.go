package netstack

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/fleetobs"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/telemetry"
	"github.com/cheriot-go/cheriot/internal/token"
)

// MQTT entry names. Table 2: 11 KB code, 28% wrapper, 24 B data — like
// SNTP, the wrapper exposes higher-level compartment APIs, encapsulating
// part of what would usually be application code.
const (
	FnMQTTConnect   = "mqtt_connect"
	FnMQTTSubscribe = "mqtt_subscribe"
	FnMQTTPublish   = "mqtt_publish"
	FnMQTTWait      = "mqtt_wait"
	FnMQTTClose     = "mqtt_close"
)

type mqttState struct {
	key cap.Capability
	// obs is the device's tracer; nil disables tracing at zero simulated
	// cost (every tracer method is a nil-safe no-op).
	obs  *fleetobs.Tracer
	bufs []*mqttBufs
}

// mqttBufs is one thread's buffers in the MQTT compartment: the topic and
// payload of a publish, its encoding, and a received record, with the
// last topic of each direction, which the next packet on it reuses.
type mqttBufs struct {
	topic, payload, enc, rx []byte
	txTopic, rxTopic        string
}

// addMQTT registers the MQTT compartment.
func addMQTT(img *firmware.Image, obs *fleetobs.Tracer) {
	img.AddCompartment(&firmware.Compartment{
		Name: MQTT, CodeSize: 11_000, WrapperCodeSize: 3_080, DataSize: 24,
		State:   func() interface{} { return &mqttState{obs: obs} },
		Imports: append(append(TLSImports(), token.Imports()...), alloc.Imports()...),
		Exports: []*firmware.Export{
			{Name: FnMQTTConnect, MinStack: 6144, Entry: mqttConnect},
			{Name: FnMQTTSubscribe, MinStack: 6144, Entry: mqttSubscribe},
			{Name: FnMQTTPublish, MinStack: 6144, Entry: mqttPublish},
			{Name: FnMQTTWait, MinStack: 6144, Entry: mqttWait},
			{Name: FnMQTTClose, MinStack: 6144, Entry: mqttClose},
		},
	})
}

// MQTTImports returns the imports for the MQTT compartment.
func MQTTImports() []firmware.Import {
	entries := []string{FnMQTTConnect, FnMQTTSubscribe, FnMQTTPublish, FnMQTTWait, FnMQTTClose}
	out := make([]firmware.Import, 0, len(entries))
	for _, e := range entries {
		out = append(out, firmware.Import{Kind: firmware.ImportCall, Target: MQTT, Entry: e})
	}
	return out
}

func mqttKey(ctx api.Context) (cap.Capability, api.Errno) {
	st := ctx.State().(*mqttState)
	if !st.key.Valid() {
		k, errno := token.KeyNew(ctx)
		if errno != api.OK {
			return cap.Null(), errno
		}
		st.key = k
	}
	return st.key, api.OK
}

// mqttTLS unpacks an MQTT handle: the payload's second granule stores the
// inner TLS handle.
func mqttTLS(ctx api.Context, handle cap.Capability) (cap.Capability, api.Errno) {
	key, errno := mqttKey(ctx)
	if errno != api.OK {
		return cap.Null(), errno
	}
	payload, errno := token.Unseal(ctx, key, handle)
	if errno != api.OK {
		return cap.Null(), api.ErrInvalid
	}
	tls := ctx.LoadCap(payload.WithAddress(payload.Base() + 8))
	if !tls.Valid() {
		return cap.Null(), api.ErrConnReset
	}
	return tls, api.OK
}

// exchange sends one MQTT packet over TLS and, when wantType is non-zero,
// waits for a response of that type (skipping ping responses).
// A packet it returns is valid until the thread's next exchange.
func exchange(ctx api.Context, tls cap.Capability, pkt netproto.MQTTPacket,
	wantType uint8, timeout uint32) (netproto.MQTTPacket, api.Errno) {
	b := threadBufs(&ctx.State().(*mqttState).bufs, ctx)
	b.enc = netproto.AppendMQTT(b.enc[:0], pkt)
	out := stage(ctx, b.enc)
	rets, err := ctx.Call(TLS, FnTLSSend, api.C(tls), api.C(out))
	if err != nil {
		return netproto.MQTTPacket{}, api.ErrConnReset
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return netproto.MQTTPacket{}, e
	}
	if wantType == 0 {
		return netproto.MQTTPacket{}, api.OK
	}
	scratch := ctx.StackAlloc(tlsRecordScratch)
	for tries := 0; tries < 4; tries++ {
		rets, err := ctx.Call(TLS, FnTLSRecv, api.C(tls), api.C(scratch), api.W(timeout))
		if err != nil {
			return netproto.MQTTPacket{}, api.ErrConnReset
		}
		if e := api.ErrnoOf(rets); e != api.OK {
			return netproto.MQTTPacket{}, e
		}
		got, derr := b.decode(ctx, scratch, rets[1].AsWord())
		if derr != nil {
			return netproto.MQTTPacket{}, api.ErrInvalid
		}
		if got.Type == wantType {
			return got, api.OK
		}
	}
	return netproto.MQTTPacket{}, api.ErrTimeout
}

// decode loads an n-byte record from scratch and decodes it; the packet
// is valid until the thread's next decode.
func (b *mqttBufs) decode(ctx api.Context, scratch cap.Capability, n uint32) (netproto.MQTTPacket, error) {
	pkt, err := netproto.DecodeMQTTTopic(loadInto(ctx, &b.rx, scratch.WithAddress(scratch.Base()), n), b.rxTopic)
	b.rxTopic = pkt.Topic
	return pkt, err
}

// mqttConnect(delegatedAllocCap, ip, port, timeout) -> (errno, handle)
func mqttConnect(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 4 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	quota := args[0].Cap
	rets, err := ctx.Call(TLS, FnTLSConnect, api.C(quota), args[1], args[2], args[3])
	if err != nil || api.ErrnoOf(rets) != api.OK {
		if err != nil {
			return api.EV(api.ErrConnReset)
		}
		return api.EV(api.ErrnoOf(rets))
	}
	tls := rets[1]
	fail := func(e api.Errno) []api.Value {
		_, _ = ctx.Call(TLS, FnTLSClose, api.C(quota), tls)
		return api.EV(e)
	}
	if _, errno := exchange(ctx, tls.Cap,
		netproto.MQTTPacket{Type: netproto.MQTTConnect, Topic: "cheriot-device"},
		netproto.MQTTConnAck, args[3].AsWord()); errno != api.OK {
		return fail(errno)
	}
	key, errno := mqttKey(ctx)
	if errno != api.OK {
		return fail(errno)
	}
	sobj, errno := alloc.WithCap{Cap: quota}.MallocSealed(ctx, key, 16)
	if errno != api.OK {
		return fail(errno)
	}
	payload, errno := token.Unseal(ctx, key, sobj)
	if errno != api.OK {
		return fail(errno)
	}
	ctx.StoreCap(payload.WithAddress(payload.Base()+8), tls.Cap)
	return ctx.Ret(api.W(uint32(api.OK)), api.C(sobj))
}

// mqttSubscribe(handle, topicBuf, timeout) -> errno
func mqttSubscribe(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	topicBuf := args[1].Cap
	if !libs.CheckPointer(ctx, topicBuf, cap.PermLoad, topicBuf.Length()) || topicBuf.Length() > 128 {
		return api.EV(api.ErrInvalid)
	}
	tls, errno := mqttTLS(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	topic := string(ctx.LoadBytes(topicBuf.WithAddress(topicBuf.Base()), topicBuf.Length()))
	_, errno = exchange(ctx, tls,
		netproto.MQTTPacket{Type: netproto.MQTTSubscribe, Topic: topic},
		netproto.MQTTSubAck, args[2].AsWord())
	return api.EV(errno)
}

// mqttPublish(handle, topicBuf, payloadBuf) -> errno
func mqttPublish(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap || !args[2].IsCap {
		return api.EV(api.ErrInvalid)
	}
	topicBuf, payloadBuf := args[1].Cap, args[2].Cap
	if !libs.CheckPointer(ctx, topicBuf, cap.PermLoad, topicBuf.Length()) ||
		!libs.CheckPointer(ctx, payloadBuf, cap.PermLoad, payloadBuf.Length()) ||
		topicBuf.Length() > 128 || payloadBuf.Length() > 512 {
		return api.EV(api.ErrInvalid)
	}
	tls, errno := mqttTLS(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	ctx.Telemetry().Counter(MQTT, "publishes").Inc()
	ctx.Emit(telemetry.Event{Kind: telemetry.KindSend,
		From: ctx.Caller(), To: MQTT, Entry: FnMQTTPublish,
		Arg: uint64(payloadBuf.Length())})
	// Distributed tracing: a sampled publish carries its trace ID in-band
	// (8 extra wire bytes, charged through the TLS per-byte cost model —
	// the honest simulated price of trace context on the wire). Untraced
	// publishes encode to the exact legacy bytes.
	obs := ctx.State().(*mqttState).obs
	trace := obs.SamplePublish()
	t0 := uint64(0)
	if trace != 0 {
		t0 = ctx.Now()
	}
	b := threadBufs(&ctx.State().(*mqttState).bufs, ctx)
	if topic := loadInto(ctx, &b.topic, topicBuf.WithAddress(topicBuf.Base()), topicBuf.Length()); string(topic) != b.txTopic {
		b.txTopic = string(topic)
	}
	_, errno = exchange(ctx, tls, netproto.MQTTPacket{
		Type:    netproto.MQTTPublish,
		Topic:   b.txTopic,
		Payload: loadInto(ctx, &b.payload, payloadBuf.WithAddress(payloadBuf.Base()), payloadBuf.Length()),
		TraceID: trace,
	}, 0, 0)
	if trace != 0 {
		obs.PublishSpan(trace, t0, ctx.Now(), errno == api.OK)
	}
	return api.EV(errno)
}

// mqttClose(delegatedAllocCap, handle) -> errno tears the session down:
// the inner TLS connection (and its TCP socket) is closed and the sealed
// MQTT handle freed back to the caller's quota, so reconnect churn (the
// fleet load generator's -churn mode) does not leak heap.
func mqttClose(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	if tls, errno := mqttTLS(ctx, args[1].Cap); errno == api.OK {
		_, _ = ctx.Call(TLS, FnTLSClose, args[0], api.C(tls))
	}
	key, errno := mqttKey(ctx)
	if errno != api.OK {
		return api.EV(errno)
	}
	rets, err := ctx.Call(alloc.Name, alloc.EntryFreeSealed, args[0], api.C(key), args[1])
	if err != nil {
		return api.EV(api.ErrUnwound)
	}
	return api.EV(api.ErrnoOf(rets))
}

// mqttWait(handle, payloadOutBuf, timeout) -> (errno, n) blocks until a
// PUBLISH notification arrives and copies its payload out.
func mqttWait(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	out := args[1].Cap
	if !libs.CheckPointer(ctx, out, cap.PermStore, out.Length()) || out.Length() == 0 {
		return api.EV(api.ErrInvalid)
	}
	tls, errno := mqttTLS(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	scratch := ctx.StackAlloc(tlsRecordScratch)
	b := threadBufs(&ctx.State().(*mqttState).bufs, ctx)
	for {
		rets, err := ctx.Call(TLS, FnTLSRecv, api.C(tls), api.C(scratch), args[2])
		if err != nil {
			return api.EV(api.ErrConnReset)
		}
		if e := api.ErrnoOf(rets); e != api.OK {
			return api.EV(e)
		}
		pkt, derr := b.decode(ctx, scratch, rets[1].AsWord())
		if derr != nil {
			return api.EV(api.ErrInvalid)
		}
		if pkt.Type != netproto.MQTTPublish {
			continue // e.g. a stray ping response
		}
		if pkt.TraceID != 0 {
			ctx.State().(*mqttState).obs.RecvSpan(pkt.TraceID, ctx.Now())
		}
		n := uint32(len(pkt.Payload))
		if n > out.Length() {
			n = out.Length()
		}
		ctx.StoreBytes(out.WithAddress(out.Base()), pkt.Payload[:n])
		return ctx.Ret(api.W(uint32(api.OK)), api.W(n))
	}
}
