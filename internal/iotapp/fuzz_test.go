package iotapp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
	"github.com/cheriot-go/cheriot/internal/netsim"
)

// A storm is a list of frames, each encoded as a 4-byte big-endian
// delay in cycles after boot (taken modulo stormWindow, so it lands
// within the ~50 s scenario), a length byte, and that many frame bytes.
// It is FuzzFrameStorm's input format.
const (
	stormWindow    = 45 * hw.DefaultHz
	maxStormFrames = 2000
)

// randomStorm draws n frames from a seeded math/rand stream: random
// bytes, which mostly die at the firewall; a plausible header over a
// random payload, which reaches the TCP/IP parser; and the classic ping
// of death spoofed from an allowed source.
func randomStorm(w *netsim.World, seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	allowed := []uint32{DNSIP, NTPIP, BrokerIP}
	var data []byte
	for i := 0; i < n; i++ {
		delay := uint32(rng.Intn(stormWindow))
		size := 1 + rng.Intn(96)
		frame := make([]byte, size)
		rng.Read(frame)
		switch rng.Intn(3) {
		case 1:
			if size >= 12 {
				netproto.Put32(frame[0:], DeviceIP)
				netproto.Put32(frame[4:], allowed[rng.Intn(len(allowed))])
				frame[8] = byte(1 + rng.Intn(3))
			}
		case 2:
			frame = w.PingOfDeath(allowed[rng.Intn(len(allowed))])
		}
		data = binary.BigEndian.AppendUint32(data, delay)
		data = append(data, byte(len(frame)))
		data = append(data, frame...)
	}
	return data
}

// runStorm schedules the storm data encodes (at most maxStormFrames
// frames) on a built deployment, arms its flight recorder and runs the
// scenario, returning the result, every crash report and the run error.
func runStorm(app *App, data []byte) (*Result, []flightrec.Report, error) {
	rec := app.Sys.EnableFlightRecorder(64)
	for i := 0; i < maxStormFrames && len(data) >= 5; i++ {
		delay := uint64(binary.BigEndian.Uint32(data)) % stormWindow
		n := min(int(data[4]), len(data)-5)
		frame := data[5 : 5+n]
		data = data[5+n:]
		app.Sys.Board.Core.After(delay, func() { app.World.InjectRaw(frame) })
	}
	res, err := app.Run()
	return res, rec.Reports(), err
}

// appCrashes returns the crash reports that name the application
// compartment: a malformed frame must never reach past the network stack.
func appCrashes(reps []flightrec.Report) []flightrec.Report {
	var out []flightrec.Report
	for _, r := range reps {
		if r.Compartment == "jsapp" {
			out = append(out, r)
		}
	}
	return out
}

// TestStormSurvival lands a seeded storm of malformed frames (including
// spoofed pings of death) throughout the run: the deployment must still
// finish its scenario — micro-reboots contained the damage — and no
// crash report may name the application. FuzzFrameStorm's committed
// seed corpus holds exactly these storms.
func TestStormSurvival(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		app, err := Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		data := randomStorm(app.World, seed, 200)
		res, reps, err := runStorm(app, data)
		app.Shutdown()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Notifications != 2 {
			t.Fatalf("seed %d: device did not complete (%d notifications, %d reboots)",
				seed, res.Notifications, res.Reboots)
		}
		if res.Reboots == 0 {
			t.Fatalf("seed %d: the storm caused no reboots; injection broken?", seed)
		}
		if bad := appCrashes(reps); len(bad) > 0 {
			t.Fatalf("seed %d: the storm crashed the application: %s", seed, bad[0].Summary)
		}
		path := filepath.Join("testdata", "fuzz", "FuzzFrameStorm", fmt.Sprintf("storm-seed%d", seed))
		if corpus, err := os.ReadFile(path); err != nil || string(corpus) != fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data) {
			t.Errorf("seed %d: %s does not hold this storm (%v)", seed, path, err)
		}
		t.Logf("seed %d: survived %d micro-reboots in %.1f s", seed, res.Reboots, res.TotalSeconds)
	}
}

// FuzzFrameStorm injects its input as a storm of frames into a booted
// deployment. Whatever the frames, the simulator must not panic and no
// crash report may name the application compartment: faults stay in
// the network stack, whose compartments micro-reboot. Completion is not
// required of an arbitrary storm; TestStormSurvival requires it of the
// seed corpus, testdata/fuzz/FuzzFrameStorm.
func FuzzFrameStorm(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		app, err := Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		defer app.Shutdown()
		_, reps, _ := runStorm(app, data)
		if bad := appCrashes(reps); len(bad) > 0 {
			t.Fatalf("a frame storm crashed the application: %s", bad[0].Summary)
		}
	})
}
