package chaos_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
)

// omrRun executes the OMRChecker motivating example under the given config
// and returns its observable outputs: the results.csv bytes and the
// per-sheet scores.
func omrRun(t *testing.T, cfg core.Config, sheets int) (csv []byte, scores []int, rt *core.Runtime) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	k := kernel.New()
	rt, err := core.New(k, reg, cat, cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(rt.Close)
	a, _ := apps.ByID(8) // OMRChecker
	e := apps.NewEnv(k, rt, a)
	func() {
		// OMR's internal MustCall panics on failure; surface it as a
		// test failure with the wrapped error instead of a crash.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("pipeline aborted: %v", r)
			}
		}()
		_, scores, err = apps.OMRGradeAll(e, sheets)
	}()
	if err != nil {
		t.Fatalf("OMRGradeAll: %v", err)
	}
	csv, err = k.FS.ReadFile(e.Dir + "/results.csv")
	if err != nil {
		t.Fatalf("results.csv: %v", err)
	}
	return csv, scores, rt
}

// TestChaosSoak sweeps 100 seeds of moderate-intensity chaos over the
// OMRChecker pipeline. For every seed the host must survive, the pipeline
// must complete, and the outputs must be byte-identical to the fault-free
// baseline — the paper's §6 claim exercised systematically.
func TestChaosSoak(t *testing.T) {
	const sheets = 2
	baseCSV, baseScores, _ := omrRun(t, core.Default(), sheets)

	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	var totalInjected uint64
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			eng := chaos.New(chaos.Scaled(int64(seed), 0.05))
			csv, scores, rt := omrRun(t, core.ChaosConfig(eng), sheets)
			if !rt.Host.Alive() {
				t.Fatalf("host crashed: %s", rt.Host.ExitReason())
			}
			if !bytes.Equal(csv, baseCSV) {
				t.Fatalf("output diverged under chaos\nfaulty: %q\nclean:  %q\nlog:\n%s",
					csv, baseCSV, eng.Events().String())
			}
			if !reflect.DeepEqual(scores, baseScores) {
				t.Fatalf("scores diverged: %v vs %v", scores, baseScores)
			}
			totalInjected += eng.Injected()
		})
	}
	if totalInjected == 0 {
		t.Fatal("soak injected zero faults; intensity too low to prove anything")
	}
	t.Logf("soak: %d seeds, %d faults injected, zero divergence", seeds, totalInjected)
}

// TestChaosRunReplayable reruns identical seeds and demands byte-identical
// outputs and injection logs — every chaos run is replayable from its seed.
func TestChaosRunReplayable(t *testing.T) {
	for _, seed := range []int64{3, 17, 55} {
		eng1 := chaos.New(chaos.Scaled(seed, 0.06))
		csv1, scores1, _ := omrRun(t, core.ChaosConfig(eng1), 2)
		eng2 := chaos.New(chaos.Scaled(seed, 0.06))
		csv2, scores2, _ := omrRun(t, core.ChaosConfig(eng2), 2)
		if !bytes.Equal(csv1, csv2) {
			t.Fatalf("seed %d: outputs diverged between identical runs", seed)
		}
		if !reflect.DeepEqual(scores1, scores2) {
			t.Fatalf("seed %d: scores diverged: %v vs %v", seed, scores1, scores2)
		}
		if !reflect.DeepEqual(eng1.Events(), eng2.Events()) {
			t.Fatalf("seed %d: injection logs diverged:\n%s\nvs\n%s", seed, eng1.Events().String(), eng2.Events().String())
		}
	}
}
