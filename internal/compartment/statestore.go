package compartment

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/firmware"
)

// StateStore is the separate compartment through which components keep
// persistent state across their own micro-reboots (§3.2.6 step 5). It is
// deliberately tiny: a word-keyed word store, with per-compartment
// namespaces so distrusting clients cannot read each other's entries.
const StateStore = "statestore"

// State-store entry names.
const (
	FnStatePut = "state_put"
	FnStateGet = "state_get"
)

type stateStoreState struct {
	// entries is keyed by (client compartment, key).
	entries map[string]map[uint32]uint32
}

// AddStateStoreTo registers the state-store compartment in an image.
func AddStateStoreTo(img *firmware.Image) {
	img.AddCompartment(&firmware.Compartment{
		Name:     StateStore,
		CodeSize: 400,
		DataSize: 64,
		State: func() interface{} {
			return &stateStoreState{entries: make(map[string]map[uint32]uint32)}
		},
		Exports: []*firmware.Export{
			{Name: FnStatePut, MinStack: 96, Entry: statePut},
			{Name: FnStateGet, MinStack: 96, Entry: stateGet},
		},
	})
}

// StateStoreImports returns the imports needed to use the state store.
func StateStoreImports() []firmware.Import {
	return []firmware.Import{
		{Kind: firmware.ImportCall, Target: StateStore, Entry: FnStatePut},
		{Kind: firmware.ImportCall, Target: StateStore, Entry: FnStateGet},
	}
}

// statePut(key, value) stores a word under the calling compartment's
// namespace. The namespace comes from the switcher's trusted stack
// (ctx.Caller), so a malicious client cannot write into another
// compartment's entries.
func statePut(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 2 {
		return api.EV(api.ErrInvalid)
	}
	st := ctx.State().(*stateStoreState)
	ns := ctx.Caller()
	if st.entries[ns] == nil {
		st.entries[ns] = make(map[uint32]uint32)
	}
	st.entries[ns][args[0].AsWord()] = args[1].AsWord()
	return api.EV(api.OK)
}

// stateGet(key) -> (errno, value) reads a word from the calling
// compartment's namespace.
func stateGet(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	st := ctx.State().(*stateStoreState)
	v, ok := st.entries[ctx.Caller()][args[0].AsWord()]
	if !ok {
		return api.EV(api.ErrNotFound)
	}
	return ctx.Ret(api.W(uint32(api.OK)), api.W(v))
}
