// Package leakcheck fails a test binary whose tests leave goroutines
// behind. A simulated thread runs on a pooled coroutine, and a kernel or
// fleet that forgets to give one back leaks a parked goroutine that no
// test result shows; a package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settle is how long Main waits for goroutines that are already ending.
const settle = time.Second

// Main runs the tests and exits. A run whose tests pass fails anyway
// when the goroutine count is still above its starting value after
// polling for up to settle; the leftover goroutines' stacks go to
// stderr. A fuzzing run (-test.fuzz) is not checked: the fuzzing engine
// starts goroutines of its own, such as a signal handler, that outlive
// the tests.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if fuzz := flag.Lookup("test.fuzz"); code == 0 && (fuzz == nil || fuzz.Value.String() == "") {
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(settle); after > before && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before\n", after, before)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}
