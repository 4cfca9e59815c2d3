// Detection server (§4.4.2, §5.3): a long-running service that detects
// objects in images submitted by remote users. Servers prioritize
// availability, so FreePart's restart supervisor revives crashed agents
// and the service keeps answering.
//
// The default act is the availability story: three honest users and one
// malicious one (a DoS exploit in the loading path). Unprotected, the
// service dies at the malicious request and later users get nothing; under
// FreePart the bad request fails alone. The act then serves a request
// stream on a session-sharded pool of -concurrency protected runtime
// shards and prints virtual-time throughput and latency percentiles.
//
// Every other act runs one of the serving drills that internal/report runs
// and pins for cmd/experiments, sized by -concurrency (n) and -requests
// (r), and prints that drill's table:
//
//	-kill-shard <id>      report.MeasureFailover in place of the serving
//	                      table: shard id dies mid-window, sessions migrate
//	-slow-shard <id>@<f>  report.MeasureGray: shard id alive but f times slow
//	-autoscale            report.MeasureAutoscale: load ramp on 2..max(n,3)
//	-overload <f>         report.MeasureOverload: two tenants at 1x and fx
//	-isolation <policy>   report.MeasureIsolation: the named policy's row
//	-defense              report.MeasureDefense: campaign and decision log
//	-partition            report.MeasurePartition: Zipf visits (skew -zipf)
//	                      over one range partition per shard
//
// Examples:
//
//	go run ./examples/server
//	go run ./examples/server -concurrency 4 -requests 64 -kill-shard 2
//	go run ./examples/server -concurrency 4 -requests 64 -slow-shard 2@10
//	go run ./examples/server -autoscale -concurrency 8
//	go run ./examples/server -overload 4 -concurrency 4
//	go run ./examples/server -isolation tiered -concurrency 4
//	go run ./examples/server -defense -concurrency 4
//	go run ./examples/server -partition -zipf 1.2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/report"
	"freepart.dev/freepart/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, runs the act they select, and writes its report to w.
// Bad input returns an error before any act runs.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	concurrency := fs.Int("concurrency", 4, "runtime shards in the serving pool (the ceiling with -autoscale)")
	requests := fs.Int("requests", 32, "request-stream length (the -partition act serves max(20x this, 400) visits)")
	killShard := fs.Int("kill-shard", -1, "failover drill: kill shard <id> halfway through its baseline serving window (-1 = off)")
	slowShard := fs.String("slow-shard", "", "gray drill: serve with shard <id> alive but <factor>x slow, e.g. 2@10; suspicion scoring and hedging mitigate")
	autoscale := fs.Bool("autoscale", false, "autoscaling drill: serve the tracking load ramp with the control plane scaling 2..concurrency shards")
	overload := fs.Int("overload", 0, "overload drill: offer the two-tenant tracking load at this multiple of pool capacity (0 = off)")
	isolationName := fs.String("isolation", "", "isolation drill: serve under this tier policy (paper|tiered|erim|none; empty = off)")
	defenseMode := fs.Bool("defense", false, "adaptive-defense drill: start at the erim floor, escalate/quarantine on attack sightings, anneal back")
	partition := fs.Bool("partition", false, "partition drill: serve a Zipf-keyed stream over one range partition per shard and rebalance the hot one mid-window")
	zipf := fs.Float64("zipf", 1.1, "Zipf skew of the -partition user population (must exceed 1)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	n, r := *concurrency, *requests
	// The drills reject bad shard ids, slowdown factors, and pool shapes
	// themselves, before any run; these are the checks no drill makes.
	switch {
	case n < 1:
		return fmt.Errorf("-concurrency %d: the serving pool needs at least 1 shard", n)
	case r < 0:
		return fmt.Errorf("-requests %d: the request stream cannot have a negative length", r)
	case *overload < 0:
		return fmt.Errorf("-overload %d: the load factor is a multiple of capacity; want 0 (off) or a positive factor like 4", *overload)
	case *partition && *zipf <= 1:
		return fmt.Errorf("-zipf %g: the Zipf skew must exceed 1", *zipf)
	}
	var pol *isolation.Policy
	if *isolationName != "" {
		var ok bool
		if pol, ok = isolation.ByName(*isolationName); !ok {
			return fmt.Errorf("-isolation %q: unknown policy; want one of %s", *isolationName, strings.Join(isolation.Names(), "|"))
		}
	}

	switch {
	case *partition:
		shards := n + n%2 // the two-socket topology needs pairs
		visits := max(20*r, 400)
		rows, err := report.MeasurePartition(shards, visits, visits, *zipf)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== FreePart partition mode (%d shards, zipf %.2f) ===\n%s", shards, *zipf, report.RenderPartition(rows))
	case *defenseMode:
		rows, err := report.MeasureDefense(n, r)
		if err != nil {
			return err
		}
		campaign, decisions := report.RenderDefense(rows)
		fmt.Fprintf(w, "=== FreePart adaptive defense mode (%d shards) ===\n%s\n%s", n, campaign, decisions)
	case pol != nil:
		rows, err := report.MeasureIsolation(n, r)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if row.Policy == pol.Name {
				frontier, matrix := report.RenderIsolation([]report.IsolationResult{row})
				fmt.Fprintf(w, "=== FreePart isolation mode (%s policy, %d shards) ===\n%s\n%s", pol.Name, n, frontier, matrix)
			}
		}
	case *overload > 0:
		factors := []int{1}
		if *overload > 1 {
			factors = append(factors, *overload)
		}
		rows, err := report.MeasureOverload(n, 4*n, n, 64, factors)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== FreePart overload mode (%d shards, %d heavy / %d light streams, %dx capacity) ===\n%s",
			n, 4*n, n, *overload, report.RenderOverload(rows))
	case *slowShard != "":
		id, factor, err := parseSlowSpec(*slowShard)
		if err != nil {
			return err
		}
		rows, err := report.MeasureGray(n, r, id, factor)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== FreePart gray-failure mode (%d shards, shard %d at %gx) ===\n%s", n, id, factor, report.RenderGray(rows))
	case *autoscale:
		top := max(n, 3)
		rows, err := report.MeasureAutoscale(2, top, 4, 10, 128)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== FreePart autoscaling mode (2..%d shards) ===\n%s", top, report.RenderAutoscale(rows))
	default:
		return serveAvailability(w, n, r, *killShard)
	}
	return nil
}

// parseSlowSpec splits a -slow-shard value of the form "<id>@<factor>",
// e.g. "2@10": shard 2 stays alive but serves every call ten times slow.
// The drill checks the id's range and that the factor exceeds 1.
func parseSlowSpec(spec string) (int, float64, error) {
	idPart, facPart, ok := strings.Cut(spec, "@")
	if !ok {
		return 0, 0, fmt.Errorf("-slow-shard: want <id>@<factor>, e.g. 2@10; got %q", spec)
	}
	id, err := strconv.Atoi(idPart)
	if err != nil {
		return 0, 0, fmt.Errorf("-slow-shard: bad shard id %q", idPart)
	}
	factor, err := strconv.ParseFloat(facPart, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-slow-shard: bad slowdown %q", facPart)
	}
	return id, factor, nil
}

// serveAvailability runs the default act: the availability demo
// unprotected and under FreePart, then the serving table, or the failover
// table when killShard is not -1. The drill runs first so a bad shard id
// fails before anything prints.
func serveAvailability(w io.Writer, shards, requests, killShard int) error {
	var table *report.Table
	if killShard != -1 {
		rows, err := report.MeasureFailover(shards, requests, killShard)
		if err != nil {
			return err
		}
		table = report.RenderFailover(rows)
	} else {
		rows, err := report.MeasureServing([]int{shards}, requests)
		if err != nil {
			return err
		}
		table = report.RenderServing(rows)
	}
	fmt.Fprintln(w, "=== unprotected server ===")
	if err := serve(w, false); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n=== FreePart server ===")
	if err := serve(w, true); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== FreePart serving mode (%d shards) ===\n%s", shards, table)
	return nil
}

// serve answers four users, one of them malicious, on one runtime: in-host
// when unprotected, partitioned with the restart supervisor under FreePart.
func serve(w io.Writer, protected bool) error {
	k := kernel.New()
	reg := all.Registry()
	alog := &attack.Log{}
	var ex core.Caller
	var rt *core.Runtime
	var direct *core.Direct
	if protected {
		var err error
		rt, err = core.New(k, reg, analysis.New(reg, nil).Categorize(), core.Default())
		if err != nil {
			return err
		}
		defer rt.Close()
		rt.OnExploit = alog.Handler()
		ex = rt
	} else {
		direct = core.NewDirect(k, reg)
		direct.Ctx.OnExploit = alog.Handler()
		ex = direct
	}

	// The detection model.
	k.FS.WriteFile("/srv/model.xml", simcv.EncodeClassifier(150, 4))
	model, _, err := ex.Call("cv.CascadeClassifier", framework.Str("/srv/model.xml"))
	if err != nil {
		return err
	}

	// Incoming requests: users 1, 3, 4 honest; user 2 malicious.
	gen := workload.New(11)
	bodies := [][]byte{
		gen.EncodedImage(16, 16, 1),
		attack.DoS("CVE-2017-14136"),
		gen.EncodedImage(16, 16, 1),
		gen.EncodedImage(16, 16, 1),
	}
	served := 0
	for i, body := range bodies {
		user := i + 1
		path := fmt.Sprintf("/srv/req-%d.img", i)
		k.FS.WriteFile(path, body)
		img, _, err := ex.Call("cv.imread", framework.Str(path))
		if err != nil {
			fmt.Fprintf(w, "user %d: request failed (%s)\n", user, short(err))
			if rt != nil {
				// The availability-first policy (§4.4.2): restart and go on.
				if err := rt.RestartDead(); err != nil {
					return err
				}
			}
			continue
		}
		_, plain, err := ex.Call("cv.CascadeClassifier.detectMultiScale", model[0].Value(), img[0].Value())
		if err != nil {
			fmt.Fprintf(w, "user %d: detection failed (%s)\n", user, short(err))
			continue
		}
		fmt.Fprintf(w, "user %d: %d objects detected\n", user, plain[0].Int)
		served++
	}
	fmt.Fprintf(w, "served %d/%d users\n", served, len(bodies))
	alive := rt != nil && rt.Host.Alive() || direct != nil && direct.Proc.Alive()
	fmt.Fprintf(w, "service process alive: %v\n", alive)
	return nil
}

func short(err error) string {
	s := err.Error()
	if len(s) > 48 {
		s = s[:48] + "..."
	}
	return s
}
