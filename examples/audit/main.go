// Audit demo: run the Oblivious DoH reproduction in-process and explain
// WHY each entity's knowledge tuple holds — every component cites the
// ledger observations that establish it, every subject gets the handle
// chain a full coalition would need to re-couple their identity with
// their DNS queries, and the coalition's handle graph is written out as
// Graphviz DOT (linkage.dot) for rendering.
//
//	go run ./examples/audit
//	dot -Tsvg linkage.dot -o linkage.svg   # if graphviz is installed
package main

import (
	"fmt"
	"log"
	"os"

	"decoupling/internal/experiments"
	"decoupling/internal/provenance"
	"decoupling/internal/telemetry"
)

func main() {
	sc, ok := experiments.FindScenario("odoh")
	if !ok {
		log.Fatal("odoh scenario not registered")
	}

	// The phase marker on so every observation records its protocol phase.
	lg, err := sc.Run(experiments.Ctx{Tel: telemetry.New(true, nil)}, 4)
	if err != nil {
		log.Fatal(err)
	}
	audit, err := provenance.Derive(lg, sc.Expected())
	if err != nil {
		log.Fatal(err)
	}

	// The human report: tuple components with supporting evidence,
	// per-subject linkage chains, coalition handle partitions. These
	// bytes are identical on every run — fresh HPKE keys and goroutine
	// interleavings are canonicalized away.
	if err := provenance.WriteReport(os.Stdout, audit); err != nil {
		log.Fatal(err)
	}

	f, err := os.Create("linkage.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := provenance.WriteDOT(f, audit); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote linkage.dot — render with: dot -Tsvg linkage.dot -o linkage.svg")
}
