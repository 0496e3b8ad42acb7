// Root benchmark harness: one benchmark per paper artifact (E1-E16,
// see DESIGN.md §3). Each benchmark runs the corresponding experiment
// end to end, so `go test -bench=. -benchmem` regenerates every table
// and figure of the reproduction and reports its cost.
//
// Sub-benchmarks expose the interesting parameter sweeps (hops,
// aggregators, batch sizes) individually.
package decoupling_test

import (
	"fmt"
	"testing"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/experiments"
	"decoupling/internal/mixnet"
	"decoupling/internal/onion"
	"decoupling/internal/pgpp"
	"decoupling/internal/ppm"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

func benchExperiment(b *testing.B, f experiments.ExperimentFunc) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := f(experiments.Ctx{})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatalf("%s failed to reproduce:\n%s", r.ID, r.Render())
		}
	}
}

// BenchmarkE1DigitalCash regenerates the §3.1.1 table.
func BenchmarkE1DigitalCash(b *testing.B) { benchExperiment(b, experiments.E1DigitalCash) }

// BenchmarkE2Mixnet regenerates the §3.1.2 table / Figure 1.
func BenchmarkE2Mixnet(b *testing.B) { benchExperiment(b, experiments.E2Mixnet) }

// BenchmarkE3PrivacyPass regenerates the §3.2.1 table / Figure 2.
func BenchmarkE3PrivacyPass(b *testing.B) { benchExperiment(b, experiments.E3PrivacyPass) }

// BenchmarkE4ObliviousDNS regenerates the §3.2.2 table (ODNS + ODoH).
func BenchmarkE4ObliviousDNS(b *testing.B) { benchExperiment(b, experiments.E4ObliviousDNS) }

// BenchmarkE5PGPP regenerates the §3.2.3 table + shuffle ablation.
func BenchmarkE5PGPP(b *testing.B) { benchExperiment(b, experiments.E5PGPP) }

// BenchmarkE6MPR regenerates the §3.2.4 table over real loopback TCP.
func BenchmarkE6MPR(b *testing.B) { benchExperiment(b, experiments.E6MPR) }

// BenchmarkE7PPM regenerates the §3.2.5 table.
func BenchmarkE7PPM(b *testing.B) { benchExperiment(b, experiments.E7PPM) }

// BenchmarkE8VPN regenerates the §3.3 VPN cautionary-tale table.
func BenchmarkE8VPN(b *testing.B) { benchExperiment(b, experiments.E8VPN) }

// BenchmarkE9ECH regenerates the §3.3 ECH analysis.
func BenchmarkE9ECH(b *testing.B) { benchExperiment(b, experiments.E9ECH) }

// BenchmarkE10Degrees regenerates the §4.2 cost-vs-benefit series.
func BenchmarkE10Degrees(b *testing.B) { benchExperiment(b, experiments.E10Degrees) }

// BenchmarkE11Striping regenerates the §5.1 resolver-striping series.
func BenchmarkE11Striping(b *testing.B) { benchExperiment(b, experiments.E11Striping) }

// BenchmarkE12TrafficAnalysis regenerates the §4.3 attack/defense
// series.
func BenchmarkE12TrafficAnalysis(b *testing.B) { benchExperiment(b, experiments.E12TrafficAnalysis) }

// BenchmarkE13TEE regenerates the §4.3 TEE extension experiment.
func BenchmarkE13TEE(b *testing.B) { benchExperiment(b, experiments.E13TEE) }

// BenchmarkE14ChaosAvailability regenerates the §4.3 fault sweep.
func BenchmarkE14ChaosAvailability(b *testing.B) {
	benchExperiment(b, experiments.E14ChaosAvailability)
}

// BenchmarkE15ChaosFailover regenerates the §4.2 failover experiment.
func BenchmarkE15ChaosFailover(b *testing.B) { benchExperiment(b, experiments.E15ChaosFailover) }

// BenchmarkE16ChaosFailOpen regenerates the fail-open counterexample.
func BenchmarkE16ChaosFailOpen(b *testing.B) { benchExperiment(b, experiments.E16ChaosFailOpen) }

// BenchmarkAllExperimentsSequential runs the full E1-E16 suite on a
// single worker — the pre-runner baseline cost of regenerating every
// artifact.
func BenchmarkAllExperimentsSequential(b *testing.B) {
	benchRunner(b, 1)
}

// BenchmarkAllExperimentsParallel runs the full E1-E16 suite on a
// GOMAXPROCS-wide worker pool. Compare against Sequential: on ≥2 cores
// wall-clock time per run must drop.
func BenchmarkAllExperimentsParallel(b *testing.B) {
	benchRunner(b, 0) // 0 = GOMAXPROCS
}

func benchRunner(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, rr := range experiments.RunAll(workers) {
			if rr.Err != nil {
				b.Fatal(rr.Err)
			}
			if !rr.Result.Pass {
				b.Fatalf("%s failed to reproduce:\n%s", rr.ID, rr.Result.Render())
			}
		}
	}
}

// --- Parameter sweeps (the individual figure points) ---------------

// BenchmarkOnionHops measures the per-request cost of each additional
// relay hop — the §4.2 "cost" axis in isolation.
func BenchmarkOnionHops(b *testing.B) {
	for _, hops := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			net := simnet.New(1)
			net.SetDefaultLink(simnet.Link{}) // zero latency: measure compute
			var infos []onion.RelayInfo
			for i := 1; i <= hops; i++ {
				r, err := onion.NewRelay(net, fmt.Sprintf("r%d", i), transport.Addr(fmt.Sprintf("relay%d", i)), nil)
				if err != nil {
					b.Fatal(err)
				}
				infos = append(infos, r.Info())
			}
			onion.NewOrigin(net, "o", "origin", 128, nil)
			client := onion.NewClient(net, "c")
			circ, err := client.BuildCircuit(infos)
			if err != nil {
				b.Fatal(err)
			}
			net.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := circ.Request("origin", []byte("GET /bench")); err != nil {
					b.Fatal(err)
				}
				net.Run()
			}
		})
	}
}

// BenchmarkPPMAggregators measures report generation + verification +
// aggregation cost per aggregator count — the other §4.2 cost axis.
func BenchmarkPPMAggregators(b *testing.B) {
	task := ppm.Task{ID: "bench", Type: ppm.TaskHistogram, Buckets: 8}
	for _, n := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("aggregators=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := ppm.NewSystem(task, n, nil)
				for j := 0; j < 32; j++ {
					if _, err := sys.Upload(fmt.Sprintf("c%d", j), uint64(j%8)); err != nil {
						b.Fatal(err)
					}
				}
				if acc, rej := sys.VerifyAll(); acc != 32 || rej != 0 {
					b.Fatalf("verify: %d/%d", acc, rej)
				}
				if _, err := sys.Aggregate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMixBatch measures mix throughput per batch threshold — the
// §4.3 latency/anonymity tradeoff's cost side.
func BenchmarkMixBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			net := simnet.New(1)
			net.SetDefaultLink(simnet.Link{})
			m, err := mixnet.NewMix(net, "m", "mix1", batch, time.Second, nil)
			if err != nil {
				b.Fatal(err)
			}
			rcv, err := mixnet.NewReceiver(net, "r", "receiver", false, nil)
			if err != nil {
				b.Fatal(err)
			}
			route := []mixnet.NodeInfo{m.Info()}
			s := &mixnet.Sender{Addr: "s"}
			msg := make([]byte, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Send(net, route, rcv.Info(), msg); err != nil {
					b.Fatal(err)
				}
				net.Run()
			}
		})
	}
}

// BenchmarkPGPPPolicies measures simulation cost per shuffle policy.
func BenchmarkPGPPPolicies(b *testing.B) {
	for _, p := range []pgpp.ShufflePolicy{pgpp.ShuffleNever, pgpp.ShuffleDaily, pgpp.ShufflePerAttach} {
		b.Run("policy="+p.String(), func(b *testing.B) {
			cfg := pgpp.SimConfig{
				Users: 10, Cells: 9, Steps: 60, SessionLen: 10, EpochLen: 30,
				Policy: p, PGPP: true, Seed: 7, KeyBits: 1024, Prepaid: 8,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pgpp.RunSim(cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyze measures the core verdict engine itself.
func BenchmarkAnalyze(b *testing.B) {
	reg := core.Registry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range reg {
			if _, err := core.Analyze(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
