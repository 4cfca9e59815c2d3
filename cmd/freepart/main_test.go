package main

import (
	"strings"
	"testing"

	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/kernel"
)

// TestAttackFiresEveryEvalCVE runs the attack demonstration for each of the
// 18 evaluation CVEs: unprotected, the exploit fires and damages the
// monolith (its data or its life); under FreePart it fires in an agent,
// and the host stays alive with its critical data intact.
func TestAttackFiresEveryEvalCVE(t *testing.T) {
	_, cat, _ := hybrid()
	for _, cve := range attack.EvalCVEs() {
		t.Run(cve.ID, func(t *testing.T) {
			un, err := attackUnprotected(cve)
			if err != nil {
				t.Fatal(err)
			}
			if un.firedIn == "-" {
				t.Fatalf("unprotected: exploit never reached %s", cve.API)
			}
			if string(un.data) == criticalData && un.state == kernel.StateRunning {
				t.Fatalf("unprotected: exploit fired in %s but left the monolith untouched", un.firedIn)
			}

			pr, err := attackProtected(cat, cve)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(pr.firedIn, "agent:") {
				t.Fatalf("FreePart: exploit fired in %q, want an agent", pr.firedIn)
			}
			if pr.state != kernel.StateRunning {
				t.Fatalf("FreePart: host %s, want running", pr.state)
			}
			if string(pr.data) != criticalData {
				t.Fatalf("FreePart: critical data now %q, want %q", pr.data, criticalData)
			}
		})
	}
}
