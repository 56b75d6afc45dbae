package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSummaryTextSurvivesJSON renders a Summary, round-trips it through
// JSON the way cheriot-fleet -json writes it and cheriot-inspect fleet
// reads it, renders it again, and requires the same bytes: a recorded
// run reads exactly like the live one. The fleet arms every block the
// report renders: obs with an SLO that fails, a poisoned rollout that
// rolls back, the recorder, the profiler and two broker shards.
func TestSummaryTextSurvivesJSON(t *testing.T) {
	cfg := rolloutConfig(true, 40*time.Second)
	cfg.CloudShards = 2
	cfg.Obs = true
	cfg.SLO = "delivery>=0.9;crashes<=0;availability>=0.5@12s"
	cfg.FlightRecorder = 256
	cfg.Prof = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	var recorded Summary
	if err := json.Unmarshal(j, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, healthAll := range []bool{false, true} {
		var live, again bytes.Buffer
		if err := res.Summary.WriteText(&live, healthAll); err != nil {
			t.Fatal(err)
		}
		if err := recorded.WriteText(&again, healthAll); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), again.Bytes()) {
			t.Fatalf("healthAll=%v: the recorded Summary renders differently:\n--- live ---\n%s\n--- recorded ---\n%s",
				healthAll, live.Bytes(), again.Bytes())
		}
		for _, want := range []string{"  shard 1:", "obs publish→deliver", "health (per sim-second)",
			"slo: FAIL", "FAIL crashes<=0", "hottest stacks", "crash reports: ",
			"AUTO-ROLLBACK", "availability (devices publishing"} {
			if !strings.Contains(live.String(), want) {
				t.Errorf("healthAll=%v: report lacks %q:\n%s", healthAll, want, live.Bytes())
			}
		}
		if elided := strings.Contains(live.String(), "seconds elided"); elided == healthAll {
			t.Errorf("healthAll=%v: health table elided = %v", healthAll, elided)
		}
	}
}
