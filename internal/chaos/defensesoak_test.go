package chaos_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/defense"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/vclock"
)

// defenseOutcome is the replay-comparable record of one defense soak run:
// every request's error class per wave, every attack delivery's class, the
// controller's full decision log and counters, and whether the policy
// annealed home.
type defenseOutcome struct {
	WaveClasses   [][]string
	AttackClasses []string
	EventLog      string
	Stats         defense.Stats
	AtFloor       bool
}

// defenseSoakRun drives one adaptive-defense campaign under background
// chaos: a 4-shard detection pool built over DynamicShards (so re-binds
// pick up the controller's live policy) with per-shard fault plans derived
// from seed, the last shard crash-looping via scheduled kills, an attacker
// tenant landing two exploit classes through the loading path, and the
// controller escalating, quarantining, annealing, and releasing at the
// wave barriers. Chaos only arms on process-tier partitions, so the floor
// waves run fault-free and the escalated waves absorb injected faults —
// both phases must replay byte-equal.
func defenseSoakRun(t *testing.T, seed int64) (defenseOutcome, *core.Executor, *defense.Controller) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	root := chaos.Scaled(seed, 0.03)
	// The kernel crash channels fire on any targeted syscall, so at the
	// domain-tier floor they kill hosts mid-wave and the watchdog dutifully
	// reports chaos kills as DoS sightings — making the escalate/anneal arc
	// seed-dependent. Confine lethal injection to the memory channel, which
	// only arms on process-tier partitions: floor waves run fault-free and
	// the escalated waves still absorb faults.
	root.Kernel.CrashProb = 0
	root.Kernel.CrashEveryN = 0
	planOf := func(id, gen int) chaos.Plan { return root.ForShard(id) }

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
	ex, err := core.NewExecutor(4, core.DynamicShards(reg, cat, cfgOf, planOf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ctl = defense.New(ex, defense.Params{
		Floor:       floor,
		CleanWindow: vclock.Duration(10 * time.Microsecond),
	})
	ex.SetAdmissionGate(ctl.Gate())
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	alog := &attack.Log{}
	arm := func(sh *core.Shard) { ctl.Arm(sh, alog.Handler()) }
	for i := 0; i < ex.Shards(); i++ {
		arm(ex.Shard(i))
	}
	ex.SetOnReplace(func(sh *core.Shard) error {
		if err := srv.Reload(sh); err != nil {
			return err
		}
		arm(sh)
		return nil
	})

	var out defenseOutcome
	reqs := apps.GenDetectionRequests(21, 16)
	wave := func(crashLoop bool) {
		if crashLoop {
			last := ex.Shards() - 1
			ex.ScheduleKill(last, ex.Shard(last).Clock().Now()+1)
		}
		rs := srv.Serve(reqs)
		classes := make([]string, len(rs))
		for i, r := range rs {
			classes[i] = core.ErrClass(r.Err)
		}
		out.WaveClasses = append(out.WaveClasses, classes)
	}
	const attacker = 7
	deliver := func(cveID string, body []byte) {
		if err := ctl.Screen(cveID); err != nil {
			out.AttackClasses = append(out.AttackClasses, core.ErrClass(err))
			return
		}
		sess := ex.SessionFor(attacker, 1)
		defer sess.Finish()
		shardID, hostDied := -1, false
		err := sess.Do(func(sh *core.Shard) error {
			shardID = sh.ID
			sh.K.FS.WriteFile("/srv/evil.img", body)
			_, _, callErr := sh.Ex.Call("cv.imread", framework.Str("/srv/evil.img"))
			if sh.Rt != nil {
				hostDied = !sh.Rt.Host.Alive()
				if !hostDied {
					_ = sh.Rt.RestartDead()
				}
			}
			return callErr
		})
		out.AttackClasses = append(out.AttackClasses, core.ErrClass(err))
		if hostDied && shardID >= 0 {
			ex.KillShard(shardID, cveID+" killed the host")
		}
	}
	barrier := func() { ctl.Tick(ex.CriticalPath()) }

	wave(true)
	barrier()
	// Two exploit classes through the loading path: the DoS kills the
	// domain-tier host (shard lost, failover), the exfiltration leaks
	// without crashing. Both become first sightings at the barrier.
	deliver("CVE-2017-14136", attack.DoS("CVE-2017-14136"))
	deliver("CVE-2020-10378", attack.Exfiltrate("CVE-2020-10378", 0x4000, 8, "evil.example.com"))
	barrier()
	// Repeat exploit dies at the front door; the quarantined offender's
	// benign retry is refused at admission.
	deliver("CVE-2017-14136", attack.DoS("CVE-2017-14136"))
	sess := ex.SessionFor(attacker, 1)
	err = sess.Do(func(sh *core.Shard) error {
		sh.K.FS.WriteFile("/srv/benign.img", reqs[0].Body)
		_, _, err := sh.Ex.Call("cv.imread", framework.Str("/srv/benign.img"))
		return err
	})
	sess.Finish()
	out.AttackClasses = append(out.AttackClasses, core.ErrClass(err))
	wave(true)
	barrier()
	wave(false)
	barrier()

	out.EventLog = ctl.Events().String()
	out.Stats = ctl.Stats()
	out.AtFloor = ctl.Policy().Equal(ctl.Floor())
	return out, ex, ctl
}

// TestDefenseSoak replays the adaptive-defense campaign under background
// chaos across several seeds: the controller's decision log, every
// request's outcome class, the per-shard injection logs across every
// incarnation, and the failover event stream must all be byte-equal
// between a run and its replay — the whole sensed-escalate-anneal loop is
// a pure function of the seed. Run under -race in CI (make check).
func TestDefenseSoak(t *testing.T) {
	seeds := []int64{5, 23, 71}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			out, ex, _ := defenseSoakRun(t, seed)

			// The campaign arc actually happened.
			st := out.Stats
			if st.Sightings == 0 || st.Escalations == 0 || st.Anneals == 0 ||
				st.Quarantines != 1 || st.Releases != 1 || st.Rebinds == 0 {
				t.Fatalf("campaign arc incomplete: %+v", st)
			}
			if !out.AtFloor {
				t.Fatal("policy did not anneal back to the floor")
			}
			want := []string{"attack-blocked", "quarantined"}
			if got := out.AttackClasses[2:4]; !reflect.DeepEqual(got, want) {
				t.Fatalf("post-barrier attack classes = %v, want %v", got, want)
			}
			for w, classes := range out.WaveClasses {
				for i, cl := range classes {
					if cl != "ok" {
						t.Errorf("wave %d request %d failed with class %s", w, i, cl)
					}
				}
			}
			m := ex.Metrics().Snapshot()
			if m.ShardDrains == 0 {
				t.Fatal("crash-looping shard never drained; the soak exercised nothing")
			}

			// Replay: everything byte-equal.
			out2, ex2, _ := defenseSoakRun(t, seed)
			if out.EventLog != out2.EventLog {
				t.Fatalf("defense decision logs diverged across replays:\n%s\nvs\n%s", out.EventLog, out2.EventLog)
			}
			if !reflect.DeepEqual(out, out2) {
				t.Fatalf("replay outcomes diverged:\n%+v\nvs\n%+v", out, out2)
			}
			for id := 0; id < 4; id++ {
				l1, l2 := incarnationLogs(ex, id), incarnationLogs(ex2, id)
				if !reflect.DeepEqual(l1, l2) {
					t.Fatalf("shard %d injection logs diverged across replays:\n%v\nvs\n%v", id, l1, l2)
				}
				if ev1, ev2 := ex.EventsFor(id), ex2.EventsFor(id); !reflect.DeepEqual(ev1, ev2) {
					t.Fatalf("shard %d failover events diverged:\n%v\nvs\n%v", id, ev1, ev2)
				}
			}
		})
	}
}
