package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// ParseProfiles accepts the documented grammar and inherits unset
// fields from the top-level config (zero values here).
func TestParseProfiles(t *testing.T) {
	ps, err := ParseProfiles("sensor:3:rate=2.5,bytes=24;gateway:2:churn=8;jsdev:1:fw=jsvm; ")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(ps) != 3 {
		t.Fatalf("got %d profiles, want 3 (trailing empty entry skipped)", len(ps))
	}
	if ps[0].Name != "sensor" || ps[0].Weight != 3 || ps[0].PublishRate != 2.5 || ps[0].PublishBytes != 24 {
		t.Errorf("sensor = %+v", ps[0])
	}
	if ps[1].Name != "gateway" || ps[1].ReconnectEvery != 8 {
		t.Errorf("gateway = %+v", ps[1])
	}
	if ps[2].Firmware != FirmwareJS {
		t.Errorf("jsdev firmware = %q, want %q", ps[2].Firmware, FirmwareJS)
	}
	if ps, err := ParseProfiles(""); err != nil || ps != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", ps, err)
	}
}

// Every malformed spec is rejected with an error naming the offending
// profile — a silently mis-parsed fleet shape would invalidate whole
// campaigns.
func TestParseProfilesErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"bad weight", "sensor:zero", "bad weight"},
		{"zero weight", "sensor:0", "bad weight"},
		{"negative weight", "sensor:-1", "bad weight"},
		{"bad rate", "sensor:1:rate=fast", "bad rate"},
		{"bad bytes", "sensor:1:bytes=big", "bad bytes"},
		{"bad churn", "sensor:1:churn=lots", "bad churn"},
		{"unknown option", "sensor:1:color=red", "unknown option"},
		{"missing value", "sensor:1:rate", "bad option"},
		{"unknown firmware", "sensor:1:fw=cobol", "unknown firmware"},
		{"empty name", ":2:rate=1", "empty name"},
		{"duplicate name", "sensor:1;gateway:2;sensor:3", "duplicate name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProfiles(tc.spec)
			if err == nil {
				t.Fatalf("ParseProfiles(%q) succeeded, want error containing %q", tc.spec, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseProfiles(%q) = %v, want error containing %q", tc.spec, err, tc.want)
			}
		})
	}
}

// FuzzParseProfiles feeds the -profiles grammar arbitrary specs. The
// parser must never panic; every profile it accepts has a unique,
// non-empty, trimmed name and a known firmware; and the accepted
// profiles pass through Run's validation, defaults and per-device
// assignment without panicking. The seed corpus is under
// testdata/fuzz/FuzzParseProfiles.
// Run fills the profile defaults into its own copy: the caller's
// Profiles stay as given, so a config run again with a higher top-level
// rate runs the same fleet as a fresh config with that rate.
func TestRunLeavesCallerProfiles(t *testing.T) {
	cfg := Config{Devices: 2, Lockstep: true, Duration: 14 * time.Second, Profiles: []Profile{{Name: "a"}}}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []Profile{{Name: "a"}}; !reflect.DeepEqual(cfg.Profiles, want) {
		t.Errorf("Run rewrote the caller's profiles to %+v, want %+v", cfg.Profiles, want)
	}
	cfg.PublishRate = 4
	rerun, err := Run(cfg)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	fresh := cfg
	fresh.Profiles = []Profile{{Name: "a"}}
	want, err := Run(fresh)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if rerun.Summary.Publishes != want.Summary.Publishes {
		t.Errorf("rerun at rate 4 published %d times, a fresh config %d", rerun.Summary.Publishes, want.Summary.Publishes)
	}
}

func FuzzParseProfiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ps, err := ParseProfiles(spec)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, p := range ps {
			if p.Name == "" || p.Name != strings.TrimSpace(p.Name) || seen[p.Name] {
				t.Fatalf("ParseProfiles(%q) accepted name %q (empty, untrimmed or duplicate)", spec, p.Name)
			}
			seen[p.Name] = true
			if p.Firmware != "" && p.Firmware != FirmwareGo && p.Firmware != FirmwareJS {
				t.Fatalf("ParseProfiles(%q) accepted firmware %q", spec, p.Firmware)
			}
		}
		cfg := Config{Devices: 4, Profiles: ps}
		if cfg.validate() != nil {
			return
		}
		cfg = cfg.withDefaults()
		for i := 0; i < cfg.Devices; i++ {
			cfg.profileFor(i)
		}
	})
}
