// Chaos demo: crash the Oblivious DoH proxy mid-run and watch the
// fail-closed resilience layer at work. Clients that catch the outage
// window retry, fail over, and finally ERROR — they never fall back to
// a direct (re-coupling) resolver — so the ledger-derived knowledge
// tuples still match the paper's §3.2.2 table and the provenance audit
// stays DECOUPLED. The whole run rides the fault plan's logical clock,
// so the output is byte-identical on every invocation.
//
//	go run ./examples/chaos
package main

import (
	"log"
	"os"

	"decoupling/internal/experiments"
	"decoupling/internal/faults"
	"decoupling/internal/provenance"
	"decoupling/internal/telemetry"
)

func main() {
	sc, ok := experiments.FindScenario("odoh")
	if !ok {
		log.Fatal("odoh scenario not registered")
	}

	// The proxy dies at t=30ms and never restarts. Equivalent CLI:
	//
	//	decouple audit -faults "crash:proxy@30ms-" odoh
	plan, err := faults.ParsePlan("crash:proxy@30ms-")
	if err != nil {
		log.Fatal(err)
	}

	lg, err := sc.RunFaults(experiments.Ctx{Tel: telemetry.New(true, nil)}, 1, sc.MaxClients, plan)
	if err != nil {
		log.Fatal(err)
	}

	// Clients before the crash got answers; clients inside the outage
	// exhausted every decoupled path and failed CLOSED. Either way the
	// audit shows the paper's tuples — no observer learned anything
	// extra because the system was failing.
	audit, err := provenance.Derive(lg, sc.Expected())
	if err != nil {
		log.Fatal(err)
	}
	if err := provenance.WriteReport(os.Stdout, audit); err != nil {
		log.Fatal(err)
	}
}
