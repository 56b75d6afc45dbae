package netstack

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/cap"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/libs"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/token"
)

// TLS entry names. The stand-in for the BearSSL compartment: run
// unmodified crypto in a fault-tolerant compartment with flow isolation —
// per-connection state is opaque and held by the caller (§5.2).
const (
	FnTLSConnect = "tls_connect"
	FnTLSSend    = "tls_send"
	FnTLSRecv    = "tls_recv"
	FnTLSClose   = "tls_close"
)

// tlsRecordScratch bounds one TLS record on the wire.
const tlsRecordScratch = 1344

// Crypto cost model for the 33 MHz core without acceleration (§5.3.3:
// "Without crypto-acceleration hardware, clock frequency is the
// bottleneck with an average load of 92%"). The handshake's public-key
// legs dominate the ~12 s App-Setup phase of Fig. 7; the symmetric path
// costs ~100 cycles/byte, typical for software AES on a small in-order
// core. The handshake charge is sliced so preemption (and the CPU-load
// sampler) keep running.
const (
	tlsHandshakeCycles = 330_000_000 // ~10 s at 33 MHz
	tlsPerByteCycles   = 100
	tlsWorkSliceCycles = 500_000
)

// chargeCrypto burns cycles in preemptible slices.
func chargeCrypto(ctx api.Context, total uint64) {
	for total > 0 {
		n := uint64(tlsWorkSliceCycles)
		if n > total {
			n = total
		}
		ctx.Work(n)
		total -= n
	}
}

type tlsConn struct {
	session *netproto.Session
}

type tlsState struct {
	key        cap.Capability
	rootSecret []byte
	nextConn   uint32
	conns      map[uint32]*tlsConn
	bufs       []*tlsBufs
}

// tlsBufs is one thread's buffers in the TLS compartment: the plaintext
// it seals and the record it opens. A session seals and opens into its
// own buffers, which the next record on it overwrites; both are copied
// into simulated memory before any preemption point.
type tlsBufs struct{ plain, record []byte }

func tlsSt(ctx api.Context) *tlsState { return ctx.State().(*tlsState) }

// addTLS registers the TLS compartment. Table 2: 56 KB code (8% wrapper —
// BearSSL's API maps directly onto ours), 2.4 KB data (cipher state).
func addTLS(img *firmware.Image, rootSecret []byte) {
	img.AddCompartment(&firmware.Compartment{
		Name: TLS, CodeSize: 56_000, WrapperCodeSize: 4_480, DataSize: 2_400,
		State: func() interface{} {
			return &tlsState{
				rootSecret: append([]byte(nil), rootSecret...),
				nextConn:   1,
				conns:      make(map[uint32]*tlsConn),
			}
		},
		Imports: append(append(NetImports(), token.Imports()...), alloc.Imports()...),
		Exports: []*firmware.Export{
			{Name: FnTLSConnect, MinStack: 4096, Entry: tlsConnect},
			{Name: FnTLSSend, MinStack: 4096, Entry: tlsSend},
			{Name: FnTLSRecv, MinStack: 4096, Entry: tlsRecv},
			{Name: FnTLSClose, MinStack: 2048, Entry: tlsClose},
		},
	})
}

// TLSImports returns the imports for the TLS compartment.
func TLSImports() []firmware.Import {
	entries := []string{FnTLSConnect, FnTLSSend, FnTLSRecv, FnTLSClose}
	out := make([]firmware.Import, 0, len(entries))
	for _, e := range entries {
		out = append(out, firmware.Import{Kind: firmware.ImportCall, Target: TLS, Entry: e})
	}
	return out
}

func tlsKey(ctx api.Context) (cap.Capability, api.Errno) {
	st := tlsSt(ctx)
	if !st.key.Valid() {
		k, errno := token.KeyNew(ctx)
		if errno != api.OK {
			return cap.Null(), errno
		}
		st.key = k
	}
	return st.key, api.OK
}

// tlsHandle unpacks a TLS connection handle: word 0 is the connection id,
// granule 1 stores the inner TCP handle capability.
func tlsHandle(ctx api.Context, handle cap.Capability) (*tlsConn, cap.Capability, api.Errno) {
	key, errno := tlsKey(ctx)
	if errno != api.OK {
		return nil, cap.Null(), errno
	}
	payload, errno := token.Unseal(ctx, key, handle)
	if errno != api.OK {
		return nil, cap.Null(), api.ErrInvalid
	}
	id := ctx.Load32(payload)
	conn := tlsSt(ctx).conns[id]
	if conn == nil {
		return nil, cap.Null(), api.ErrConnReset
	}
	tcp := ctx.LoadCap(payload.WithAddress(payload.Base() + 8))
	if !tcp.Valid() {
		return nil, cap.Null(), api.ErrConnReset
	}
	return conn, tcp, api.OK
}

// clientRandomFor derives a deterministic per-connection client random;
// under the simulation's threat model real entropy adds nothing, and
// determinism keeps whole-system runs reproducible.
func clientRandomFor(id uint32) []byte {
	b := make([]byte, netproto.RandomBytes)
	for i := range b {
		b[i] = byte(id>>(8*(uint(i)%4))) ^ byte(i*37)
	}
	return b
}

// tlsConnect(delegatedAllocCap, ip, port, timeout) -> (errno, handle)
func tlsConnect(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 4 || !args[0].IsCap {
		return api.EV(api.ErrInvalid)
	}
	quota := args[0].Cap
	st := tlsSt(ctx)

	// The TCP connection handle is allocated on the caller's quota too:
	// tls_connect allocates on behalf of the caller (§3.2.3).
	rets, err := ctx.Call(NetAPI, FnNetConnectTCP, api.C(quota), args[1], args[2], args[3])
	if err != nil || api.ErrnoOf(rets) != api.OK {
		return api.EV(api.ErrConnRefused)
	}
	tcp := rets[1]
	fail := func(e api.Errno) []api.Value {
		_, _ = ctx.Call(NetAPI, FnNetClose, api.C(quota), tcp)
		return api.EV(e)
	}

	id := st.nextConn
	st.nextConn++
	clientRandom := clientRandomFor(id)
	hello := stage(ctx, netproto.EncodeClientHello(clientRandom))
	if rets, err := ctx.Call(NetAPI, FnNetSend, tcp, api.C(hello)); err != nil || api.ErrnoOf(rets) != api.OK {
		return fail(api.ErrConnReset)
	}
	scratch := ctx.StackAlloc(tlsRecordScratch)
	rets, err = ctx.Call(NetAPI, FnNetRecv, tcp, api.C(scratch), args[3])
	if err != nil {
		return fail(api.ErrConnReset)
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return fail(e)
	}
	sh := ctx.LoadBytes(scratch.WithAddress(scratch.Base()), rets[1].AsWord())
	serverRandom, _, verr := netproto.DecodeServerHello(st.rootSecret, sh)
	if verr != nil {
		// Certificate verification failed: refuse the connection.
		return fail(api.ErrNotPermitted)
	}
	// The asymmetric legs of the handshake dominate on an unaccelerated
	// 33 MHz core.
	chargeCrypto(ctx, tlsHandshakeCycles)
	sessionKey := netproto.SessionKey(st.rootSecret, clientRandom, serverRandom)
	st.conns[id] = &tlsConn{session: netproto.NewSession(sessionKey)}

	// Build the opaque handle on the caller's quota: id word + TCP handle.
	key, errno := tlsKey(ctx)
	if errno != api.OK {
		return fail(errno)
	}
	sobj, errno := alloc.WithCap{Cap: quota}.MallocSealed(ctx, key, 16)
	if errno != api.OK {
		delete(st.conns, id)
		return fail(errno)
	}
	payload, errno := token.Unseal(ctx, key, sobj)
	if errno != api.OK {
		delete(st.conns, id)
		return fail(errno)
	}
	ctx.Store32(payload, id)
	ctx.StoreCap(payload.WithAddress(payload.Base()+8), tcp.Cap)
	return ctx.Ret(api.W(uint32(api.OK)), api.C(sobj))
}

// tlsSend(handle, bufCap) -> errno
func tlsSend(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	buf := args[1].Cap
	n := buf.Length()
	if !libs.CheckPointer(ctx, buf, cap.PermLoad, n) || n == 0 || n > 1024 {
		return api.EV(api.ErrInvalid)
	}
	conn, tcp, errno := tlsHandle(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	b := threadBufs(&tlsSt(ctx).bufs, ctx)
	plain := loadInto(ctx, &b.plain, buf.WithAddress(buf.Base()), n)
	chargeCrypto(ctx, uint64(n)*tlsPerByteCycles)
	record := stage(ctx, conn.session.SealOwned(plain))
	rets, err := ctx.Call(NetAPI, FnNetSend, api.C(tcp), api.C(record))
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	return api.EV(api.ErrnoOf(rets))
}

// tlsRecv(handle, bufCap, timeout) -> (errno, n)
func tlsRecv(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 3 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	out := args[1].Cap
	if !libs.CheckPointer(ctx, out, cap.PermStore, out.Length()) || out.Length() == 0 {
		return api.EV(api.ErrInvalid)
	}
	conn, tcp, errno := tlsHandle(ctx, args[0].Cap)
	if errno != api.OK {
		return api.EV(errno)
	}
	scratch := ctx.StackAlloc(tlsRecordScratch)
	rets, err := ctx.Call(NetAPI, FnNetRecv, api.C(tcp), api.C(scratch), args[2])
	if err != nil {
		return api.EV(api.ErrConnReset)
	}
	if e := api.ErrnoOf(rets); e != api.OK {
		return api.EV(e)
	}
	b := threadBufs(&tlsSt(ctx).bufs, ctx)
	record := loadInto(ctx, &b.record, scratch.WithAddress(scratch.Base()), rets[1].AsWord())
	chargeCrypto(ctx, uint64(len(record))*tlsPerByteCycles)
	plain, oerr := conn.session.OpenOwned(record)
	if oerr != nil {
		// Authentication failure kills the stream, as in real TLS.
		return api.EV(api.ErrConnReset)
	}
	n := uint32(len(plain))
	if n > out.Length() {
		n = out.Length()
	}
	ctx.StoreBytes(out.WithAddress(out.Base()), plain[:n])
	return ctx.Ret(api.W(uint32(api.OK)), api.W(n))
}

// tlsClose(delegatedAllocCap, handle) -> errno
func tlsClose(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 || !args[0].IsCap || !args[1].IsCap {
		return api.EV(api.ErrInvalid)
	}
	conn, tcp, errno := tlsHandle(ctx, args[1].Cap)
	if errno == api.OK && conn != nil {
		st := tlsSt(ctx)
		for id, c := range st.conns {
			if c == conn {
				delete(st.conns, id)
			}
		}
		_, _ = ctx.Call(NetAPI, FnNetClose, args[0], api.C(tcp))
	}
	key, _ := tlsKey(ctx)
	rets, err := ctx.Call(alloc.Name, alloc.EntryFreeSealed, args[0], api.C(key), args[1])
	if err != nil {
		return api.EV(api.ErrUnwound)
	}
	return api.EV(api.ErrnoOf(rets))
}
