package fleet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
)

// TestForkedFleetMatchesColdFleet runs the same config with snapshot/fork
// boot (the default) and with NoSnapshot (every device through the full
// loader) and requires byte-identical JSON summaries and final memories:
// forking must be invisible to everything deterministic. The rollouts
// hold it across firmware swaps, each a whole-image reboot that forks
// or cold-boots its shape's launch image like the first incarnation: a
// healthy one, a poisoned one that rolls back, and the swap pin, which
// every fault crosses.
func TestForkedFleetMatchesColdFleet(t *testing.T) {
	steady := testConfig()
	steady.Lockstep = true
	for _, tc := range []struct {
		name    string
		cfg     Config
		rollout bool
	}{
		{"steady", steady, false},
		{"rollout", rolloutConfig(false, 45*time.Second), true},
		{"poisoned rollout", rolloutConfig(true, 45*time.Second), true},
		{"swap pin", swapPinConfig(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forked, err := Run(tc.cfg)
			if err != nil {
				t.Fatalf("forked run: %v", err)
			}
			cold := tc.cfg
			cold.NoSnapshot = true
			coldRes, err := Run(cold)
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}

			if forked.Snapshot == nil {
				t.Fatal("default run did not fork")
			}
			if coldRes.Snapshot != nil {
				t.Fatal("NoSnapshot run reports snapshot stats")
			}
			if tc.rollout {
				checkRolloutForks(t, forked)
			} else {
				want := []ShapeStats{{Firmware: FirmwareGo, Forks: tc.cfg.Devices}}
				if st := *forked.Snapshot; !reflect.DeepEqual(st.Shapes, want) || st.Forks != tc.cfg.Devices {
					t.Fatalf("snapshot stats = %+v, want one capture and %d forks", st, tc.cfg.Devices)
				}
			}

			j1, j2 := summaryJSON(t, forked.Summary), summaryJSON(t, coldRes.Summary)
			if !bytes.Equal(j1, j2) {
				t.Errorf("forked fleet summary diverges from cold boot:\n--- forked ---\n%s\n--- cold ---\n%s", j1, j2)
			}

			// Final machine state must match too, device by device.
			for i := range forked.Devices {
				if !forked.Devices[i].Sys.Board.Core.Mem.Equal(coldRes.Devices[i].Sys.Board.Core.Mem) {
					t.Errorf("device %d final memory diverges between forked and cold boot", i)
				}
			}
		})
	}
}

// mixedConfig is a Go+jsvm fleet whose seeded profile assignment deploys
// both shapes.
func mixedConfig() Config {
	return Config{
		Devices:       6,
		Lockstep:      true,
		Duration:      12 * time.Second,
		PublishRate:   2,
		ArrivalSpread: 500 * time.Millisecond,
		Seed:          11,
		Profiles: []Profile{
			{Name: "go", Weight: 1, Firmware: FirmwareGo},
			{Name: "js", Weight: 1, Firmware: FirmwareJS},
		},
	}
}

// TestHeterogeneousFleetTemplatesPerShape proves a mixed Go+jsvm fleet
// never shares a template across firmware shapes: one template per
// distinct Profile.Firmware, forked by that firmware's devices (a fork
// boots its template's image, so a shared template would run the Go
// image on jsvm devices; TestDevicesBootTheAuditedImage checks each
// device's image).
func TestHeterogeneousFleetTemplatesPerShape(t *testing.T) {
	cfg := mixedConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Snapshot == nil {
		t.Fatal("snapshot boot not armed")
	}
	shapes := map[string]int{}
	for _, d := range res.Devices {
		shapes[d.Profile.Firmware]++
	}
	if len(shapes) != 2 {
		t.Fatalf("seeded profile assignment produced %d shapes (%v); want both", len(shapes), shapes)
	}
	want := []ShapeStats{
		{Firmware: FirmwareGo, Forks: shapes[FirmwareGo]},
		{Firmware: FirmwareJS, Forks: shapes[FirmwareJS]},
	}
	if st := *res.Snapshot; !reflect.DeepEqual(st.Shapes, want) || st.Forks != cfg.Devices {
		t.Fatalf("snapshot stats = %+v, want one template per shape forked by its devices %+v", st, want)
	}
	if res.Summary.DeviceErrors != 0 {
		t.Fatalf("%d device errors", res.Summary.DeviceErrors)
	}
}

// TestOneBootPerShape: a Run boots each firmware shape it deploys exactly
// once, at launch, and forks every device incarnation, firmware swaps
// included, from the shape's template. HostProf's boot/cold counts every
// cold boot the run made, and boot/fork the build phase's forks; a single
// device forks like any other.
func TestOneBootPerShape(t *testing.T) {
	single := testConfig()
	single.Devices = 1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"go", testConfig()},
		{"single", single},
		{"go+jsvm", mixedConfig()},
		{"rollout", rolloutConfig(false, 45*time.Second)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.HostProf = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shapes := firmwareShapes(res.Config)
			incarnations := 0
			for _, d := range res.Devices {
				incarnations += d.incarnation + 1
			}
			st, hp := res.Snapshot, res.HostProf
			if st == nil || len(st.Shapes) != len(shapes) || st.Forks != incarnations {
				t.Fatalf("snapshot stats %+v, want %d shapes and a fork per each of %d incarnations",
					st, len(shapes), incarnations)
			}
			if cold := hp.Phase("boot/cold").Calls; cold != uint64(len(shapes)) {
				t.Errorf("%d cold boots, want one per shape (%d)", cold, len(shapes))
			}
			if forks := hp.Phase("boot/fork").Calls; forks != uint64(cfg.Devices) {
				t.Errorf("build phase forked %d devices, want %d", forks, cfg.Devices)
			}
			if tc.cfg.Rollout != nil && incarnations == cfg.Devices {
				t.Error("the rollout swapped no device")
			}
		})
	}
}

// TestDevicesBootTheAuditedImage: every device incarnation, forked or
// cold-booted, on its boot shape, updated or rolled back, boots its
// shape's one launch image, the image whose boot report the launch
// audited. Its compartments, the TCB's included, are that boot's
// *firmware.Compartment values, so the audited report describes every
// device, and a forked incarnation boots the launch capture's image
// itself.
func TestDevicesBootTheAuditedImage(t *testing.T) {
	cold := mixedConfig()
	cold.NoSnapshot = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"go+jsvm", mixedConfig()},
		{"go+jsvm cold", cold},
		{"updated", rolloutConfig(false, 45*time.Second)},
		{"rolled back", rolloutConfig(true, 40*time.Second)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// launchImage is, per shape, the image of a boot made as the
			// launch made its boot: a fork of the launch capture boots the
			// captured image as is, and a cold boot adds the TCB
			// definitions every image shares to img, as the launch did.
			launchImage := map[*shape]*firmware.Image{}
			swapped := 0
			for _, d := range res.Devices {
				sh := d.sh
				if d.incarnation > 0 {
					swapped++
				}
				if sh.firmware != d.Profile.Firmware || sh.ota != d.OnNewFirmware {
					t.Fatalf("device %d runs shape %s", d.Index, sh.name())
				}
				if sh.report == nil {
					t.Fatalf("shape %s: the launch audited no report", sh.name())
				}
				launched := launchImage[sh]
				if launched == nil {
					var ref *core.System
					if sh.snap != nil {
						ref = core.Fork(sh.snap, core.BootOptions{})
					} else if ref, err = core.BootWith(sh.img, core.BootOptions{}); err != nil {
						t.Fatal(err)
					}
					ref.Shutdown()
					launched = ref.Image
					launchImage[sh] = launched
				}
				if sh.snap != nil && d.Sys.Image != launched {
					t.Fatalf("forked device %d boots an image other than its shape's capture", d.Index)
				}
				own := map[*firmware.Compartment]bool{}
				for _, c := range launched.Compartments {
					own[c] = true
				}
				for _, c := range sh.img.Compartments {
					if !own[c] {
						t.Fatalf("shape %s: the launch booted no compartment %s of its image", sh.name(), c.Name)
					}
				}
				for _, c := range d.Sys.Image.Compartments {
					if !own[c] {
						t.Fatalf("device %d booted compartment %s of its own", d.Index, c.Name)
					}
				}
				if n := len(d.Sys.Image.Compartments); n != len(own) {
					t.Fatalf("device %d booted %d compartments, the launch image has %d",
						d.Index, n, len(own))
				}
			}
			launched := len(launchImage)
			if tc.cfg.Rollout == nil && launched != len(firmwareShapes(res.Config)) {
				t.Errorf("devices run %d distinct shapes, want the %d launched",
					launched, len(firmwareShapes(res.Config)))
			}
			if tc.cfg.Rollout != nil && (swapped == 0 || launched != 1) {
				t.Errorf("%d devices swapped onto %d shapes, want some onto one", swapped, launched)
			}
		})
	}
}

// TestConcurrentForksMatchLockstep forks the Go and the jsvm template
// from three shard goroutines at once: the summary must equal the
// lockstep run's byte for byte. scripts/check.sh repeats it under the
// race detector, with TestRolloutLockstepMatchesParallel (whose swaps
// fork a second template while the other shards run), to catch a fork
// writing into the storage it shares with its template.
func TestConcurrentForksMatchLockstep(t *testing.T) {
	cfg := mixedConfig()
	lock, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Lockstep = false
	par.Shards = 3
	parRes, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	a, b := lock.Summary, parRes.Summary
	a.Shards, a.Lockstep = 0, false
	b.Shards, b.Lockstep = 0, false
	if j1, j2 := summaryJSON(t, a), summaryJSON(t, b); !bytes.Equal(j1, j2) {
		t.Fatalf("parallel forks diverge from lockstep:\n--- lockstep ---\n%s\n--- parallel ---\n%s", j1, j2)
	}
}
