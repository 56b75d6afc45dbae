package fleet

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/flightrec"
)

// podConfig is a small deterministic fleet with per-device flight
// recorders and a ping-of-death injected after every device has
// connected (the spoofed broker source passes the ingress filter only
// once the session is allowed).
func podConfig() Config {
	cfg := testConfig()
	cfg.Lockstep = true
	cfg.Duration = 16 * time.Second
	cfg.FlightRecorder = 512
	cfg.PingOfDeathAt = 13 * time.Second
	return cfg
}

// TestFleetPingOfDeathForensics runs the fault campaign and checks every
// device's black box produced a post-mortem whose provenance chain
// identifies the firewall's staging buffer as the faulting capability's
// origin — fleet-scale §5.3.3 forensics.
func TestFleetPingOfDeathForensics(t *testing.T) {
	r, err := Run(podConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := r.Summary
	if s.DeviceErrors != 0 {
		t.Fatalf("%d device errors", s.DeviceErrors)
	}
	if s.CapabilityFaults == 0 {
		t.Fatal("the ping of death caused no capability faults")
	}
	if s.CrashDevices != s.Devices {
		t.Errorf("crash devices = %d, want all %d", s.CrashDevices, s.Devices)
	}
	if s.CrashReports < uint64(s.Devices) {
		t.Errorf("crash reports = %d, want >= %d", s.CrashReports, s.Devices)
	}
	if s.Reboots != s.Devices {
		t.Errorf("micro-reboots = %d, want %d", s.Reboots, s.Devices)
	}

	for _, d := range r.Devices {
		reps := d.Rec.Reports()
		if len(reps) == 0 {
			t.Fatalf("device %d recorded no crash report", d.Index)
		}
		rep := reps[0]
		if rep.Compartment != "tcpip" {
			t.Errorf("device %d faulted in %q, want tcpip", d.Index, rep.Compartment)
		}
		if rep.Cap == nil {
			t.Errorf("device %d report has no capability dump", d.Index)
		}
		if rep.Allocation == nil {
			t.Fatalf("device %d report resolved no allocation; summary: %s", d.Index, rep.Summary)
		}
		if rep.Allocation.Owner != "firewall" {
			t.Errorf("device %d provenance owner = %q, want firewall (the staging buffer)",
				d.Index, rep.Allocation.Owner)
		}
		if len(rep.Chain) == 0 {
			t.Errorf("device %d report has no provenance chain", d.Index)
		}
		if !rep.Reboot {
			t.Errorf("device %d report not marked with the micro-reboot", d.Index)
		}

		dump := d.Sys.FlightDump()
		if dump.Device == "" || len(dump.Events) == 0 || len(dump.Reports) == 0 {
			t.Errorf("device %d dump incomplete: device=%q events=%d reports=%d",
				d.Index, dump.Device, len(dump.Events), len(dump.Reports))
		}
		// Every device boots its shape's one image, so the recorder must
		// name the device, not the image.
		name := fmt.Sprintf("fleet-%05d", d.Index)
		for _, dump := range d.CrashDumps() {
			if dump.Device != name {
				t.Errorf("device %d dump names device %q, want %q", d.Index, dump.Device, name)
			}
			for _, rep := range dump.Reports {
				if rep.Device != name {
					t.Errorf("device %d crash report names device %q, want %q", d.Index, rep.Device, name)
				}
			}
		}
	}
}

// TestFleetForensicsDeterministic requires the fault campaign itself to
// be reproducible: same seed, same crash reports, byte-identical
// summaries.
func TestFleetForensicsDeterministic(t *testing.T) {
	r1, err := Run(podConfig())
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(podConfig())
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	j1, j2 := summaryJSON(t, r1.Summary), summaryJSON(t, r2.Summary)
	if !bytes.Equal(j1, j2) {
		t.Errorf("fault-campaign summaries differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
	for i := range r1.Devices {
		s1 := r1.Devices[i].Sys.FlightDump()
		s2 := r2.Devices[i].Sys.FlightDump()
		if len(s1.Events) != len(s2.Events) || len(s1.Reports) != len(s2.Reports) {
			t.Errorf("device %d black box diverged: %d/%d events, %d/%d reports",
				i, len(s1.Events), len(s2.Events), len(s1.Reports), len(s2.Reports))
		}
	}
}

// TestFleetDumpWritable checks a device dump survives the JSON
// round-trip through a file, the way cheriot-fleet -dump-dir and
// cheriot-inspect exchange them.
func TestFleetDumpWritable(t *testing.T) {
	cfg := podConfig()
	cfg.Devices = 1
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	d := r.Devices[0]
	path := t.TempDir() + "/dev0.json"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	dump := d.Sys.FlightDump()
	if err := dump.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	back, err := flightrec.ReadDump(g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Device != dump.Device || len(back.Reports) != len(dump.Reports) {
		t.Errorf("dump round trip lost data: %q/%d vs %q/%d",
			back.Device, len(back.Reports), dump.Device, len(dump.Reports))
	}
}
