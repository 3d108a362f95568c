package main

import (
	"math"
	"testing"

	"yafim/internal/obs"
)

// A map task waits from its job's job_start to its grant; a reduce task
// from the job's last map completion; a retried attempt has no wait; the
// job gap runs from the last completion to the next job_start.
func TestLeaseTimesFromEventLog(t *testing.T) {
	events := []obs.LiveEvent{
		{TsMs: 0, Event: "job_start", Seq: 1},
		{TsMs: 10, Event: "lease_grant", Seq: 1, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 50, Event: "task_complete", Seq: 1, Phase: "map", Task: 1, Attempt: 1},
		{TsMs: 260, Event: "lease_grant", Seq: 1, Phase: "map", Task: 2, Attempt: 1},
		{TsMs: 300, Event: "task_complete", Seq: 1, Phase: "map", Task: 2, Attempt: 1},
		{TsMs: 550, Event: "lease_grant", Seq: 1, Phase: "reduce", Task: 1, Attempt: 1},
		{TsMs: 560, Event: "lease_expire", Seq: 1, Phase: "reduce", Task: 1, Attempt: 1},
		{TsMs: 570, Event: "lease_grant", Seq: 1, Phase: "reduce", Task: 1, Attempt: 2},
		{TsMs: 600, Event: "task_complete", Seq: 1, Phase: "reduce", Task: 1, Attempt: 2},
		{TsMs: 604, Event: "job_start", Seq: 2},
		{TsMs: 854, Event: "lease_grant", Seq: 2, Phase: "map", Task: 1, Attempt: 1},
	}
	waits, runs, gaps := leaseTimes(events)
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	check("waits", waits, []float64{0.010, 0.260, 0.250, 0.250})
	check("runs", runs, []float64{0.040, 0.040, 0.030})
	check("gaps", gaps, []float64{0.004})
	if n := countEvents(events, "task_reassign", "lease_expire", "lease_regrant"); n != 1 {
		t.Errorf("reassigns = %d, want 1", n)
	}
}
