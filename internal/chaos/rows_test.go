package chaos_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/defense"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/report"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
	"freepart.dev/freepart/internal/workload"
)

// Each test in this file runs rows of the replay harness (replay_test.go).

// grade grades two OMRChecker sheets, a pipeline that crosses all four API
// types, on one runtime under cfg. The host must survive.
func grade(t *testing.T, cfg core.Config) run {
	rt := newRuntime(t, cfg)
	a, _ := apps.ByID(8) // OMRChecker
	e := apps.NewEnv(rt.K, rt, a)
	var scores []int
	var err error
	func() {
		// The pipeline's MustCall panics on failure: report its error.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("pipeline aborted: %v", r)
			}
		}()
		_, scores, err = apps.OMRGradeAll(e, 2)
	}()
	if err != nil {
		t.Fatalf("OMRGradeAll: %v", err)
	}
	if !rt.Host.Alive() {
		t.Fatalf("host crashed: %s", rt.Host.ExitReason())
	}
	csv, err := rt.K.FS.ReadFile(e.Dir + "/results.csv")
	if err != nil {
		t.Fatalf("results.csv: %v", err)
	}
	return run{out: struct {
		CSV    string
		Scores []int
	}{string(csv), scores}, rt: rt}
}

// omrSoak grades OMRChecker under chaos of the given intensity: for every
// seed the outputs equal the fault-free run's, the paper's §6 claim.
func omrSoak(t *testing.T, intensity float64, seeds []int64, short int) {
	var injected uint64
	scenario{
		seeds: seeds,
		short: short,
		serve: func(t *testing.T, seed int64, _ int) run {
			r := grade(t, core.ChaosConfig(chaos.New(chaos.Scaled(seed, intensity))))
			injected += r.counter("InjectedFaults")
			return r
		},
		baseline: func(t *testing.T, _ int64) any { return grade(t, core.Default()).out },
	}.run(t)
	// Two sheets draw no fault under many seeds: the row fires when its
	// seeds together do.
	if injected == 0 {
		t.Fatal("no seed injected a fault")
	}
}

// TestChaosSoak sweeps 100 seeds of moderate chaos over OMRChecker.
func TestChaosSoak(t *testing.T) {
	seeds := make([]int64, 100)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	omrSoak(t, 0.05, seeds, 10)
}

// TestChaosRunReplayable replays three seeds at a higher intensity.
func TestChaosRunReplayable(t *testing.T) {
	omrSoak(t, 0.06, []int64{3, 17, 55}, 3)
}

// trackSoak serves tracking streams over 4 slots under cfg, slot 2 in a
// crash loop and every slot under background faults. Sessions fail over
// off the dying shard, and every stream ends where it does on a fault-free
// pool under baseCfg. Slot 2's sessions fail over before they bind any
// state, since the crash loop faults their first write, so slot 3 is also
// killed halfway through the 51µs its two streams take on a fault-free
// slot: its sessions have bound their filter state by then, and it moves
// with them through the checkpoint log, whose adoption count the row
// checks. The slots are served a goroutine each, and the variant serves
// them under GOMAXPROCS 1: contention must not move the digest.
func trackSoak(cfg, baseCfg core.Config) scenario {
	streams := apps.GenTrackStreams(21, 8, 6)
	return scenario{
		seeds: []int64{5, 23, 71},
		serve: func(t *testing.T, seed int64, variant int) run {
			if variant == 1 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			ex := chaosPool(t, 4, cfg, crashLoop(seed, 0.03, 2))
			ex.ScheduleKill(3, ex.Shard(3).Clock().Now()+vclock.Duration(25*time.Microsecond))
			return run{out: apps.ProvisionTracking(ex).ServeStreams(streams), ex: ex}
		},
		variants: 1,
		baseline: func(t *testing.T, _ int64) any {
			return apps.ProvisionTracking(protected(t, 4, baseCfg)).ServeStreams(streams)
		},
		fired: map[string]uint64{"ShardDrains": 2, "Migrations": 4},
		check: func(t *testing.T, r run) {
			// Each of slot 3's two sessions restores its filter from the
			// log; slot 2's, which bind nothing, restore none.
			if n := r.ex.CheckpointLog().Stats().Adoptions; n < 2 {
				t.Fatalf("%d bound handles restored from the checkpoint log, want slot 3's 2", n)
			}
		},
	}
}

// TestMultiShardChaosSoak is the sharded soak.
func TestMultiShardChaosSoak(t *testing.T) {
	trackSoak(crashLoopConfig(), core.Default()).run(t)
}

// TestIsolationChaosSoak is the sharded soak under the tiered policy, whose
// MPK domains share the host's fate and take no faults. Domain switches
// move the clocks, so the baseline is tiered too.
func TestIsolationChaosSoak(t *testing.T) {
	cfg := crashLoopConfig()
	cfg.Isolation = isolation.Tiered()
	trackSoak(cfg, core.ConfigForIsolation(isolation.Tiered())).run(t)
}

// provisionDetection provisions the detection service on ex.
func provisionDetection(t *testing.T, ex *core.Executor) *apps.DetectionServer {
	t.Helper()
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// detectBaseline serves reqs in order on a fault-free 4-slot pool.
func detectBaseline(reqs []apps.DetectionRequest) func(*testing.T, int64) any {
	return func(t *testing.T, _ int64) any {
		return provisionDetection(t, protected(t, 4, core.Default())).ServeSeq(reqs)
	}
}

// TestGraySoak mixes every failure mode in one detection pool, served in
// order: slot 1 crash-loops, slot 2 runs 8x slow with stalls (first
// generation only), every slot takes background faults, and suspicion
// scoring and hedging are armed. Hedges and drains never change what is
// computed, and both bad slots drain, the slow one by its latency.
func TestGraySoak(t *testing.T) {
	reqs := apps.GenDetectionRequests(19, 48)
	// The scorer's reference, calibrated as the gray drill does: the
	// largest per-slot EWMA of a fault-free run under an inert scorer.
	cal := protected(t, 4, core.Default())
	srv := provisionDetection(t, cal)
	cal.SetGray(core.GrayPolicy{Ratio: 1e9, Baseline: 1})
	srv.ServeSeq(reqs)
	var base vclock.Duration
	for _, g := range cal.GrayScores() {
		base = max(base, g.EWMA)
	}
	scenario{
		seeds: []int64{13, 37},
		serve: func(t *testing.T, seed int64, _ int) run {
			loop := crashLoop(seed, 0.03, 1)
			ex := chaosPool(t, 4, crashLoopConfig(), func(id, gen int) chaos.Plan {
				if id == 2 && gen == 0 {
					return loop(id, gen).WithDegrade(chaos.DegradePlan{Factor: 8, StallProb: 0.2, Stall: vclock.Duration(2 * time.Millisecond)})
				}
				return loop(id, gen)
			})
			srv := provisionDetection(t, ex)
			ex.SetGray(core.GrayPolicy{Ratio: 3, Baseline: base})
			ex.SetHedge(core.HedgePolicy{Delay: 4 * base})
			return run{out: srv.ServeSeq(reqs), ex: ex}
		},
		baseline: detectBaseline(reqs),
		fired:    map[string]uint64{"GrayDrains": 1, "ShardDrains": 2},
	}.run(t)
}

// TestOverloadSoak offers the drill's 4:1 tenant skew, 16 heavy and 4 light
// streams, at 4x the capacity of 4 slots under queue bounds, deadlines and
// WFQ, while slot 1 crash-loops. Failover and shedding compose: no stream
// fails, the run sheds and serves, and the light tenant, one stream per
// slot, keeps getting service.
func TestOverloadSoak(t *testing.T) {
	initCost, stepCost, err := report.CalibrateTracking()
	if err != nil {
		t.Fatal(err)
	}
	const shards, heavy, light, steps, factor = 4, 16, 4, 48, 4
	perShard := vclock.Duration((heavy + light) / shards)
	streams := apps.GenTenantStreams(17, heavy, light, steps,
		stepCost*perShard/factor, initCost*(perShard+1))
	scenario{
		seeds: []int64{5, 23, 71},
		serve: func(t *testing.T, seed int64, _ int) run {
			ex := chaosPool(t, shards, crashLoopConfig(), crashLoop(seed, 0.03, 1))
			srv := apps.ProvisionTracking(ex)
			// The streams' arrival stamps start at zero: so do the clocks.
			for i := 0; i < shards; i++ {
				ex.Shard(i).K.Clock.Reset()
			}
			ex.SetAdmission(core.AdmissionPolicy{QueueLimit: 3, Deadline: 2 * stepCost})
			out := srv.ServeRampOpts(streams, apps.RampOptions{
				TolerateShed: true,
				Orderer:      &sched.WFQ{Quantum: 5 * stepCost / 4},
			})
			return run{out: out, ex: ex}
		},
		fired: map[string]uint64{"ShardDrains": 1},
		check: func(t *testing.T, r run) {
			served, dropped, lightServed := 0, 0, 0
			for i, res := range r.out.([]apps.TrackResult) {
				served += res.Steps
				dropped += res.Dropped
				if streams[i].Tenant == 2 {
					lightServed += res.Steps
				}
			}
			// The band is wide: fault retries inflate service past the
			// calibrated capacity, and the failed shard's backlog sheds
			// whole after failover. Collapse serves nothing.
			rate := float64(dropped) / float64((heavy+light)*steps)
			shed := r.counter("Rejected") + r.counter("DeadlineShed")
			if dropped == 0 || shed == 0 || served == 0 || lightServed == 0 || rate > 0.98 {
				t.Fatalf("served %d steps (%d of the light tenant) and shed %d (rate %.2f, %d counted): want each nonzero, the rate at most 0.98",
					served, lightServed, dropped, rate, shed)
			}
		},
	}.run(t)
}

// TestAutoscaleSoak scales a pool both ways along a load ramp: 2 slots to
// start, slot 1 crash-looping, and every slot the controller grows under
// background faults. Scaling, rebalancing, batching and failover change no
// result against a fixed 4-slot fault-free pool with no controller.
func TestAutoscaleSoak(t *testing.T) {
	streams := apps.GenRampStreams(17, 4, 6, 64)
	scenario{
		seeds: []int64{7, 31, 59},
		serve: func(t *testing.T, seed int64, _ int) run {
			ex := chaosPool(t, 2, crashLoopConfig(), crashLoop(seed, 0.03, 1))
			srv := apps.ProvisionTracking(ex)
			ctl := sched.New(ex, sched.DefaultPolicy(2, 6), nil)
			out := srv.ServeRamp(streams, ctl, ctl.Batch())
			// Reconciling on after the last stream folds the pool back.
			for i := 0; i < 6; i++ {
				ctl.Tick()
			}
			return run{out: out, ex: ex, logs: []string{ctl.Events().String()}}
		},
		baseline: func(t *testing.T, _ int64) any {
			return apps.ProvisionTracking(protected(t, 4, core.Default())).ServeRamp(streams, nil, nil)
		},
		fired: map[string]uint64{"ScaleUps": 1, "ScaleDowns": 1, "ShardDrains": 1},
	}.run(t)
}

// campaignOut is what a defense campaign serves: each wave's request
// outcome classes, each attack delivery's class, the controller's
// counters, and whether the policy annealed back to its floor.
type campaignOut struct {
	Waves   [][]string
	Attacks []string
	Stats   defense.Stats
	AtFloor bool
}

// campaign drives one adaptive-defense campaign under planOf (nil: no
// chaos) over a 4-slot DynamicShards pool, whose rebinds take the live
// policy. The last slot dies at the start of two waves, and an attacker
// lands two exploit classes while the controller escalates, quarantines,
// anneals and releases at the wave barriers.
func campaign(t *testing.T, planOf func(id, gen int) chaos.Plan) run {
	floor := isolation.ERIM()
	var ctl *defense.Controller
	cfgOf := func() core.Config {
		p := floor
		if ctl != nil {
			p = ctl.Policy()
		}
		cfg := core.ConfigForIsolation(p)
		cfg.RetryBudget = 6
		cfg.CheckpointAll = true
		cfg.BackoffBase = vclock.Duration(20 * time.Microsecond)
		cfg.BackoffCap = vclock.Duration(2 * time.Millisecond)
		cfg.BreakerThreshold = 8
		cfg.BreakerWindow = vclock.Duration(200 * time.Millisecond)
		return cfg
	}
	ex := executor(t, 4, core.DynamicShards(reg, cat, cfgOf, planOf))
	ctl = defense.New(ex)
	ex.SetAdmissionGate(ctl.Gate())
	srv := provisionDetection(t, ex)
	alog := &attack.Log{}
	for i := 0; i < ex.Shards(); i++ {
		ctl.Arm(ex.Shard(i), alog.Handler())
	}
	ex.SetOnReplace(func(sh *core.Shard) error {
		if err := srv.Reload(sh); err != nil {
			return err
		}
		ctl.Arm(sh, alog.Handler())
		return nil
	})

	var out campaignOut
	reqs := apps.GenDetectionRequests(21, 16)
	wave := func(kill bool) {
		if kill {
			last := ex.Shards() - 1
			ex.ScheduleKill(last, ex.Shard(last).Clock().Now()+1)
		}
		var classes []string
		for _, r := range srv.Serve(reqs) {
			classes = append(classes, core.ErrClass(r.Err))
		}
		out.Waves = append(out.Waves, classes)
	}
	// load has the attacker tenant's session read body from file through
	// cv.imread. A host the read killed costs its shard.
	load := func(cveID, file string, body []byte) {
		sess := ex.SessionFor(7, 1)
		defer sess.Finish()
		shard, hostDied := -1, false
		err := sess.Do(func(sh *core.Shard) error {
			shard = sh.ID
			sh.K.FS.WriteFile(file, body)
			_, _, callErr := sh.Ex.Call("cv.imread", framework.Str(file))
			if hostDied = !sh.Rt.Host.Alive(); !hostDied {
				_ = sh.Rt.RestartDead()
			}
			return callErr
		})
		out.Attacks = append(out.Attacks, core.ErrClass(err))
		if hostDied && shard >= 0 {
			ex.KillShard(shard, cveID+" killed the host")
		}
	}
	deliver := func(cveID string, body []byte) {
		if err := ctl.Screen(cveID); err != nil {
			out.Attacks = append(out.Attacks, core.ErrClass(err))
			return
		}
		load(cveID, "/srv/evil.img", body)
	}
	barrier := func() { ctl.Tick(ex.CriticalPath()) }

	wave(true)
	barrier()
	// The DoS kills the domain-tier host (shard lost, failover); the
	// exfiltration leaks without crashing. Both are first sightings.
	deliver("CVE-2017-14136", attack.DoS("CVE-2017-14136"))
	deliver("CVE-2020-10378", attack.Exfiltrate("CVE-2020-10378", 0x4000, 8, "evil.example.com"))
	barrier()
	// The repeat exploit dies at the front door, and the quarantined
	// offender's benign retry is refused at admission.
	deliver("CVE-2017-14136", attack.DoS("CVE-2017-14136"))
	load("", "/srv/benign.img", reqs[0].Body)
	wave(true)
	barrier()
	wave(false)
	barrier()

	out.Stats = ctl.Stats()
	out.AtFloor = ctl.Policy().Equal(ctl.Floor())
	return run{out: out, ex: ex, logs: []string{ctl.Events().String()}}
}

// TestDefenseSoak runs the adaptive-defense campaign under background
// chaos: the sense, escalate and anneal loop serves what it serves
// fault-free.
func TestDefenseSoak(t *testing.T) {
	scenario{
		seeds: []int64{5, 23, 71},
		serve: func(t *testing.T, seed int64, _ int) run {
			root := chaos.Scaled(seed, 0.03)
			// At the domain-tier floor a kernel crash kills the host, which
			// the watchdog reports as a DoS sighting, so the arc would
			// follow the seed. Memory faults arm on process-tier partitions
			// only: floor waves run fault-free, escalated ones take faults.
			root.Kernel.CrashProb = 0
			root.Kernel.CrashEveryN = 0
			return campaign(t, func(id, _ int) chaos.Plan { return root.ForShard(id) })
		},
		baseline: func(t *testing.T, _ int64) any { return campaign(t, nil).out },
		fired:    map[string]uint64{"ShardDrains": 1},
		check: func(t *testing.T, r run) {
			out := r.out.(campaignOut)
			if st := out.Stats; st.Sightings == 0 || st.Escalations == 0 || st.Anneals == 0 ||
				st.Quarantines != 1 || st.Releases != 1 || st.Rebinds == 0 {
				t.Fatalf("campaign arc incomplete: %+v", st)
			}
			if !out.AtFloor {
				t.Fatal("policy did not anneal back to the floor")
			}
			if got, want := out.Attacks[2:4], []string{"attack-blocked", "quarantined"}; !slices.Equal(got, want) {
				t.Fatalf("post-barrier attack classes = %v, want %v", got, want)
			}
		},
	}.run(t)
}

// TestPartitionSoak serves Zipf-keyed detection over 4 slots with the
// partition plane armed, slot 1 crash-looping and background faults
// everywhere. Halfway, the drill splits the Zipf head's partition and moves
// its upper half, live sessions included, onto slot 3. None of it changes
// what is computed; warm hits and cold misses both occur, and the drill's
// split is the only one.
func TestPartitionSoak(t *testing.T) {
	reqs := apps.GenDetectionRequests(19, 48)
	scenario{
		seeds: []int64{13, 37},
		serve: func(t *testing.T, seed int64, _ int) run {
			ex := chaosPool(t, 4, crashLoopConfig(), crashLoop(seed, 0.03, 1))
			const users = 24
			meta := partition.New(partition.Range, 4, users)
			for i := 0; i < 4; i++ {
				meta.Prefer(i, i)
			}
			mem := partition.NewMemory()
			topo := sched.Topology{ShardsPerSocket: 2}
			ctl := sched.New(ex, sched.Policy{MinShards: 4, MaxShards: 4},
				sched.PartitionAware{Meta: meta, Memory: mem, Topo: topo})
			srv := provisionDetection(t, ex)
			cfg := apps.PartitionConfig{Meta: meta, Memory: mem, Cost: vclock.Default(), WorkingSet: 16 << 10, Class: "detect"}
			keys := workload.ZipfPopulation{Users: users, S: 1.25, Seed: seed}.Keys(len(reqs))
			out := srv.ServeSeqKeyed(reqs[:24], keys[:24], cfg)
			if _, _, err := sched.RebalancePartitionAt(ex, meta, mem, topo, vclock.Default(), 0, 0, 3, 16<<10); err != nil {
				t.Fatalf("rebalance: %v", err)
			}
			out = append(out, srv.ServeSeqKeyed(reqs[24:], keys[24:], cfg)...)
			return run{out: out, ex: ex, logs: []string{ctl.Events().String(), string(mem.Encode()), string(meta.Encode())}}
		},
		baseline: detectBaseline(reqs),
		fired:    map[string]uint64{"WarmHits": 1, "ColdMisses": 1, "ShardDrains": 1},
		check: func(t *testing.T, r run) {
			if n := r.counter("PartitionSplits"); n != 1 {
				t.Fatalf("PartitionSplits = %d, want the drill's one split", n)
			}
		},
	}.run(t)
}

// TestMigrationWriteFaultKeepsState pins failover's failed adoption: with
// this seed a write fault kills the adopting agent while it materializes a
// migrated session's Kalman state. Adopt revives it and retries, so every
// stream ends at its fault-free position; a session left holding its old
// shard's handle would read whatever the replacement keeps under that id.
func TestMigrationWriteFaultKeepsState(t *testing.T) {
	scenario{
		seeds: []int64{-8646113359661155082},
		serve: func(t *testing.T, seed int64, _ int) run {
			ex := chaosPool(t, 2, crashLoopConfig(), crashLoop(seed, 0.03, 1))
			return run{out: apps.ProvisionTracking(ex).ServeRamp(apps.GenTrackStreams(seed, 4, 250), nil, nil), ex: ex}
		},
		baseline: func(t *testing.T, seed int64) any {
			ex := executor(t, 2, core.DirectShards(reg))
			return apps.ProvisionTracking(ex).ServeRamp(apps.GenTrackStreams(seed, 4, 250), nil, nil)
		},
		check: func(t *testing.T, r run) {
			// Background faults alone drain slot 0: the crash slot must too.
			if n := len(r.ex.Incarnations(1)); n < 2 {
				t.Fatalf("crash-loop slot 1 never failed over (%d incarnation)", n)
			}
		},
	}.run(t)
}

// TestPartitionZeroCost serves a keyed stream with a disabled
// PartitionConfig and no keyed placement hook, which digests like the
// plain serving path.
func TestPartitionZeroCost(t *testing.T) {
	reqs := apps.GenDetectionRequests(29, 32)
	keys := workload.ZipfPopulation{Users: 16, S: 1.2, Seed: 29}.Keys(len(reqs))
	scenario{
		seeds: []int64{23},
		serve: func(t *testing.T, seed int64, variant int) run {
			ex := chaosPool(t, 4, crashLoopConfig(), crashLoop(seed, 0.03, -1))
			srv := provisionDetection(t, ex)
			if variant == 1 {
				return run{out: srv.ServeSeqKeyed(reqs, keys, apps.PartitionConfig{}), ex: ex}
			}
			return run{out: srv.ServeSeq(reqs), ex: ex}
		},
		variants: 1,
		baseline: detectBaseline(reqs),
		fired:    map[string]uint64{"InjectedFaults": 1},
	}.run(t)
}

// TestGrayZeroCost installs the gray layer disabled, a zero GrayPolicy,
// HedgePolicy and DegradePlan, which under fault injection digests like a
// pool without it.
func TestGrayZeroCost(t *testing.T) {
	reqs := apps.GenDetectionRequests(7, 32)
	scenario{
		seeds: []int64{41},
		serve: func(t *testing.T, seed int64, variant int) run {
			loop := crashLoop(seed, 0.02, -1)
			ex := chaosPool(t, 4, crashLoopConfig(), func(id, gen int) chaos.Plan {
				if variant == 1 {
					return loop(id, gen).WithDegrade(chaos.DegradePlan{})
				}
				return loop(id, gen)
			})
			srv := provisionDetection(t, ex)
			if variant == 1 {
				ex.SetGray(core.GrayPolicy{})
				ex.SetHedge(core.HedgePolicy{})
			}
			return run{out: srv.ServeSeq(reqs), ex: ex}
		},
		variants: 1,
		baseline: detectBaseline(reqs),
		fired:    map[string]uint64{"InjectedFaults": 1},
	}.run(t)
}

// TestIsolationZeroCostPaperPolicy grades OMRChecker on a runtime under the
// explicit "paper" policy, which digests like one with no policy and
// charges no domain cost.
func TestIsolationZeroCostPaperPolicy(t *testing.T) {
	scenario{
		serve: func(t *testing.T, _ int64, variant int) run {
			if variant == 1 {
				return grade(t, core.ConfigForIsolation(isolation.Paper()))
			}
			return grade(t, core.Default())
		},
		variants: 1,
		check: func(t *testing.T, r run) {
			if n := r.counter("DomainSwitches") + r.counter("DomainCopies"); n != 0 {
				t.Fatalf("the process tier charged %d domain switches and copies", n)
			}
		},
	}.run(t)
}

// TestZeroCostGuardServing serves tracking streams on a fault-free pool
// plainly, under the zero admission policy set explicitly, and through a
// WFQ orderer, which over one tenant keeps arrival order though every
// wave takes the entries path, not the fast path. All three digest alike,
// with no failover event.
func TestZeroCostGuardServing(t *testing.T) {
	scenario{
		seeds: []int64{21},
		serve: func(t *testing.T, seed int64, variant int) run {
			ex := protected(t, 2, core.Default())
			srv := apps.ProvisionTracking(ex)
			for i := 0; i < ex.Shards(); i++ {
				ex.Shard(i).K.Clock.Reset()
			}
			var opt apps.RampOptions
			switch variant {
			case 1:
				ex.SetAdmission(core.AdmissionPolicy{})
			case 2:
				opt.Orderer = &sched.WFQ{}
			}
			return run{out: srv.ServeRampOpts(apps.GenTrackStreams(seed, 6, 8), opt), ex: ex}
		},
		variants: 2,
		check: func(t *testing.T, r run) {
			if n := len(r.ex.Events()); n != 0 {
				t.Fatalf("a fault-free run logged %d failover events", n)
			}
		},
	}.run(t)
}

// TestServingZeroCostWhenSchedulerOff attaches a scheduler switched off:
// a pinned pool, no signals, round-robin placement and no batching. The
// ramp digests as it does with no scheduler.
func TestServingZeroCostWhenSchedulerOff(t *testing.T) {
	scenario{
		seeds: []int64{13},
		serve: func(t *testing.T, seed int64, variant int) run {
			ex := protected(t, 3, core.Default())
			srv := apps.ProvisionTracking(ex)
			streams := apps.GenRampStreams(seed, 4, 5, 32)
			if variant == 0 {
				return run{out: srv.ServeRamp(streams, nil, nil), ex: ex}
			}
			ctl := sched.New(ex, sched.Policy{MinShards: 3, MaxShards: 3}, sched.RoundRobin{})
			return run{out: srv.ServeRamp(streams, ctl, nil), ex: ex, logs: []string{ctl.Events().String()}}
		},
		variants: 1,
	}.run(t)
}

// TestDefenseZeroCost builds, under each isolation preset, a pool over a
// DynamicShards factory whose configuration closure returns one static
// configuration, which digests like ProtectedShards over it: the rebind
// machinery costs nothing without a controller.
func TestDefenseZeroCost(t *testing.T) {
	for _, pol := range isolation.Presets() {
		cfg := core.ConfigForIsolation(pol)
		t.Run(pol.Name, scenario{
			seeds: []int64{7},
			serve: func(t *testing.T, seed int64, variant int) run {
				factory := core.ProtectedShards(reg, cat, cfg)
				if variant == 1 {
					factory = core.DynamicShards(reg, cat, func() core.Config { return cfg }, nil)
				}
				ex := executor(t, 4, factory)
				return run{out: provisionDetection(t, ex).Serve(apps.GenDetectionRequests(seed, 24)), ex: ex}
			},
			variants: 1,
		}.run)
	}
}
