// PGPP demo: the same mobility trace through a baseline cellular core
// and through PGPP with three identifier policies — showing how much of
// each user's trajectory the core's own location log reconstructs.
//
//	go run ./examples/pgpp
package main

import (
	"fmt"
	"log"

	"decoupling/internal/core"
	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/ledger"
	"decoupling/internal/pgpp"
)

func main() {
	cfg := pgpp.DefaultSimConfig()
	key, err := blindrsa.GenerateKey(1024)
	if err != nil {
		log.Fatal(err)
	}
	cfg.GatewayKey = key
	fmt.Printf("simulating %d users, %d cells, %d steps, re-attach every %d steps\n\n",
		cfg.Users, cfg.Cells, cfg.Steps, cfg.SessionLen)

	runs := []struct {
		label  string
		pgppOn bool
		policy pgpp.ShufflePolicy
	}{
		{"baseline cellular (permanent IMSI)", false, pgpp.ShuffleNever},
		{"PGPP, static pseudonym", true, pgpp.ShuffleNever},
		{"PGPP, daily shuffle", true, pgpp.ShuffleDaily},
		{"PGPP, per-attach shuffle", true, pgpp.ShufflePerAttach},
	}
	for _, r := range runs {
		c := cfg
		c.PGPP = r.pgppOn
		c.Policy = r.policy
		res, err := pgpp.RunSim(c, nil)
		if err != nil {
			log.Fatal(err)
		}
		acc := pgpp.TrackingAccuracy(res.Core.Log(), res.NetIDOwner)
		fmt.Printf("%-38s core-log tracking accuracy: %.3f\n", r.label, acc)
	}

	// The decoupling table for the per-attach configuration.
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	if _, err := pgpp.RunSim(cfg, lg); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmeasured knowledge (vs the paper's §3.2.3 table):")
	expected := core.PGPP()
	measured := lg.DeriveSystem(expected)
	fmt.Print(core.RenderComparison(expected, measured))
	v, err := core.Analyze(measured)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", v)
	fmt.Println("(billing still works: the gateway knows who pays; the core knows where devices are; nobody knows both)")
}
