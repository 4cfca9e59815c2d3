package main

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/workload"
)

// cmdChaos runs the evaluation pipelines under seeded fault injection and
// checks output equivalence against a fault-free run: the availability
// argument of §4.4.2, demonstrated rather than asserted.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "first injection seed")
	seeds := fs.Int("seeds", 10, "how many consecutive seeds to sweep")
	intensity := fs.Float64("intensity", 0.05, "fault intensity in [0,1]")
	sheets := fs.Int("sheets", 2, "OMR sheets per run")
	requests := fs.Int("requests", 4, "detection-server requests per run")
	_ = fs.Parse(args)
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}

	baseCSV, baseScores, _, err := chaosOMR(nil, *sheets)
	if err != nil {
		return fmt.Errorf("fault-free OMR baseline: %w", err)
	}
	baseDet, err := chaosServer(nil, *requests)
	if err != nil {
		return fmt.Errorf("fault-free server baseline: %w", err)
	}
	fmt.Printf("baseline: OMR scores %v, detections %v\n", baseScores, baseDet)

	diverged := 0
	for s := *seed; s < *seed+int64(*seeds); s++ {
		eng := chaos.New(chaos.Scaled(s, *intensity))
		csv, scores, rt, err := chaosOMR(eng, *sheets)
		ok := err == nil && bytes.Equal(csv, baseCSV) && reflect.DeepEqual(scores, baseScores)
		snap := rt.Metrics.Snapshot()

		engSrv := chaos.New(chaos.Scaled(s, *intensity))
		det, serr := chaosServer(engSrv, *requests)
		srvOK := serr == nil && reflect.DeepEqual(det, baseDet)

		verdict := "ok"
		if !ok || !srvOK {
			verdict = "DIVERGED"
			diverged++
		}
		fmt.Printf("seed %4d: injected=%d restarts=%d retries=%d degraded=%d  [%s]\n",
			s, snap.InjectedFaults+engSrv.Injected(), snap.Restarts, snap.Retries, snap.Degraded, verdict)
		if err != nil {
			fmt.Printf("           OMR error: %v\n", err)
		}
		if serr != nil {
			fmt.Printf("           server error: %v\n", serr)
		}
		if !ok || !srvOK {
			fmt.Printf("           injection log:\n%s", indent(eng.Events().String()+engSrv.Events().String()))
		}
	}
	if diverged > 0 {
		return fmt.Errorf("%d/%d seeds diverged from the fault-free baseline", diverged, *seeds)
	}
	fmt.Printf("%d seeds: all outputs byte-identical to the fault-free baseline\n", *seeds)
	return nil
}

// chaosOMR grades OMR sheets under the given engine (nil = fault-free) and
// returns the results.csv bytes and scores.
func chaosOMR(eng *chaos.Engine, sheets int) (csv []byte, scores []int, rt *core.Runtime, err error) {
	cfg := core.Default()
	if eng != nil {
		cfg = core.ChaosConfig(eng)
	}
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	k := kernel.New()
	rt, err = core.New(k, reg, cat, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	defer rt.Close()
	a, _ := apps.ByID(8) // OMRChecker
	e := apps.NewEnv(k, rt, a)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("pipeline aborted: %v", r)
			}
		}()
		_, scores, err = apps.OMRGradeAll(e, sheets)
	}()
	if err != nil {
		return nil, nil, rt, err
	}
	csv, err = k.FS.ReadFile(e.Dir + "/results.csv")
	return csv, scores, rt, err
}

// chaosServer runs the detection-server pipeline (examples/server, all
// honest users) under the given engine and returns per-request detections.
func chaosServer(eng *chaos.Engine, requests int) ([]int64, error) {
	cfg := core.Default()
	if eng != nil {
		cfg = core.ChaosConfig(eng)
	}
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	k := kernel.New()
	rt, err := core.New(k, reg, cat, cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	k.FS.WriteFile("/srv/model.xml", simcv.EncodeClassifier(150, 4))
	model, _, err := rt.Call("cv.CascadeClassifier", framework.Str("/srv/model.xml"))
	if err != nil {
		return nil, fmt.Errorf("model load: %w", err)
	}
	gen := workload.New(11)
	det := make([]int64, 0, requests)
	for i := 0; i < requests; i++ {
		path := fmt.Sprintf("/srv/req-%d.img", i)
		k.FS.WriteFile(path, gen.EncodedImage(16, 16, 1))
		img, _, err := rt.Call("cv.imread", framework.Str(path))
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		_, plain, err := rt.Call("cv.CascadeClassifier.detectMultiScale", model[0].Value(), img[0].Value())
		if err != nil {
			return nil, fmt.Errorf("detect %d: %w", i, err)
		}
		det = append(det, plain[0].Int)
	}
	if !rt.Host.Alive() {
		return nil, fmt.Errorf("host died: %s", rt.Host.ExitReason())
	}
	return det, nil
}

func indent(s string) string {
	var b bytes.Buffer
	for _, line := range bytes.Split([]byte(s), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		b.WriteString("             ")
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}
