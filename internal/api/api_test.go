package api

import (
	"reflect"
	"testing"

	"github.com/cheriot-go/cheriot/internal/cap"
)

func TestValueHelpers(t *testing.T) {
	w := W(42)
	if w.IsCap || w.AsWord() != 42 {
		t.Fatalf("W(42) = %+v", w)
	}
	c := C(cap.New(0x100, 0x200, 0x180, cap.PermData))
	if !c.IsCap {
		t.Fatal("C() did not mark the value as a capability")
	}
	// The word view of a capability is its cursor, like a register read.
	if c.AsWord() != 0x180 {
		t.Fatalf("capability AsWord = %#x, want cursor", c.AsWord())
	}
}

func TestErrnoEncoding(t *testing.T) {
	for _, e := range []Errno{
		OK, ErrInvalid, ErrNoMemory, ErrNotPermitted, ErrTimeout,
		ErrWouldBlock, ErrNotFound, ErrUnwound, ErrCompartmentBusy,
		ErrQueueFull, ErrQueueEmpty, ErrConnRefused, ErrConnReset,
	} {
		if e.Error() == "" || e.Error() == "unknown error" {
			t.Errorf("Errno(%d) has no message", e)
		}
		// Round trip through a return-register list.
		if got := ErrnoOf(EV(e)); got != e {
			t.Errorf("ErrnoOf(EV(%d)) = %d", e, got)
		}
	}
	if Errno(-999).Error() != "unknown error" {
		t.Error("unknown errno must say so")
	}
	if ErrnoOf(nil) != ErrInvalid {
		t.Error("empty return list must decode as invalid")
	}
}

// TestEVSharesNamedErrnos: every named errno's return register is one
// shared, read-only slice of length and capacity 1, so returning an
// errno allocates nothing; any other value gets a slice of its own.
func TestEVSharesNamedErrnos(t *testing.T) {
	for e := OK; e >= ErrConnReset; e-- {
		a, b := EV(e), EV(e)
		// The package cap shadows the builtin here.
		if n := reflect.ValueOf(a).Cap(); len(a) != 1 || n != 1 || &a[0] != &b[0] {
			t.Errorf("EV(%d): len %d cap %d, shared %v; want one shared 1-register slice",
				e, len(a), n, &a[0] == &b[0])
		}
		if ErrnoOf(a) != e {
			t.Errorf("ErrnoOf(EV(%d)) = %d", e, ErrnoOf(a))
		}
	}
	if a, b := EV(-999), EV(-999); &a[0] == &b[0] || ErrnoOf(a) != -999 {
		t.Error("EV of an unnamed errno must return a fresh slice holding it")
	}
	if n := testing.AllocsPerRun(100, func() { _ = EV(ErrTimeout) }); n != 0 {
		t.Errorf("EV(ErrTimeout) allocates %.1f objects, want 0", n)
	}
}
