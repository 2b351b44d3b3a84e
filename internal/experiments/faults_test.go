package experiments

import "testing"

// A shrunk faults bench must execute every scenario, observe the expected
// fault counters, and stay bitwise-identical to serial on every row.
func TestFaultsBenchShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up TCP worker fleets")
	}
	// 60 iterations: long enough (tens of milliseconds) that the solve cannot
	// end before the partitioned worker's redial is installed. At 8, a 13 ms
	// solve ended first in 1 of 20 runs, and in 1 of 4 once dist got faster.
	cfg := FaultsBenchConfig{
		Dims:      []int{60, 50, 40},
		NNZ:       4000,
		TrueRank:  3,
		Rank:      4,
		Noise:     0.05,
		GenSeed:   17,
		Iters:     60,
		Workers:   2,
		KillAfter: 4,
		Dir:       t.TempDir(),
	}
	rep, err := FaultsBenchWith(DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllExact {
		t.Fatalf("not all rows bitwise-identical: %+v", rep.Rows)
	}
	want := map[string]func(FaultsRow) error{
		"baseline":                 nil,
		"worker-crash":             nil,
		"partition-rejoin":         nil,
		"frame-corrupt":            nil,
		"fleet-collapse-degrade":   nil,
		"kill-resume":              nil,
		"torn-checkpoint-fallback": nil,
	}
	for _, row := range rep.Rows {
		if _, ok := want[row.Scenario]; !ok {
			t.Fatalf("unexpected scenario %q", row.Scenario)
		}
		delete(want, row.Scenario)
		if !row.Bitwise {
			t.Fatalf("%s: not bitwise", row.Scenario)
		}
		switch row.Scenario {
		case "worker-crash":
			if row.WorkerDeaths < 1 {
				t.Fatalf("worker-crash saw no deaths: %+v", row)
			}
		case "partition-rejoin":
			if row.Rejoins < 1 {
				t.Fatalf("partition did not rejoin: %+v", row)
			}
		case "frame-corrupt":
			// The corrupted frame travels coordinator→worker, so the CRC
			// rejection happens worker-side; the coordinator observes the
			// resulting connection reset and the worker's rejoin.
			if row.WorkerDeaths < 1 || row.Rejoins < 1 {
				t.Fatalf("corrupt frame did not reset and recover the connection: %+v", row)
			}
		case "fleet-collapse-degrade":
			if !row.Degraded {
				t.Fatalf("fleet collapse did not degrade: %+v", row)
			}
		case "kill-resume", "torn-checkpoint-fallback":
			if !row.Resumed {
				t.Fatalf("%s did not resume: %+v", row.Scenario, row)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("scenarios missing from report: %v", want)
	}
	if s := RenderFaultsBench(rep); s == "" {
		t.Fatal("empty render")
	}
}
