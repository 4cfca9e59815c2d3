package report

import (
	"errors"
	"fmt"
	"time"

	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/defense"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/vclock"
)

// DefenseAttackOutcome is one attack delivery inside the campaign drill.
type DefenseAttackOutcome struct {
	// CVE / API / Class identify the exploit (attack.EvalCVEs).
	CVE   string `json:"cve"`
	API   string `json:"api"`
	Class string `json:"class"`
	// Wave is "probe" (the first-sighting wave) or "main" (the full
	// 18-CVE campaign wave).
	Wave string `json:"wave"`
	// Outcome tells how the attack ended: "screened" (rejected at the
	// front door by the armed signature blocklist), "quarantined"
	// (the attacker tenant was gated at admission), "contained" (the
	// exploit ran and the isolation tier held the class verdict), or
	// "landed" (the exploit ran and the verdict fell).
	Outcome string `json:"outcome"`
	// Blocked is true for every outcome except "landed".
	Blocked bool `json:"blocked"`
}

// DefenseResult is one row of the adaptive-defense campaign: one policy
// (the four static presets plus the adaptive controller) driven through
// the identical campaign — steady serving, a probe attack wave (one CVE
// per vulnerability class), serving under pressure with a crash-looping
// shard and a quarantined repeat offender, the full 18-CVE campaign
// wave, and a final steady-state wave that prices what the deployment
// pays after the storm.
type DefenseResult struct {
	// Policy names the row (paper / tiered / erim / none / adaptive).
	Policy string `json:"policy"`
	// Adaptive marks the defense-controller row.
	Adaptive bool `json:"adaptive"`
	// ProbeBlocked / ProbeTotal score the probe wave — the adaptive row
	// pays the floor policy's verdicts here (first sighting is the price
	// of learning).
	ProbeBlocked int `json:"probe_blocked"`
	ProbeTotal   int `json:"probe_total"`
	// Blocked / Total score the main campaign wave: all 18 evaluation
	// CVEs delivered after the probe wave's sightings.
	Blocked int `json:"blocked"`
	Total   int `json:"total"`
	// Screened counts main-wave attacks rejected by the signature
	// blocklist; GateRejected counts attacks refused because their
	// tenant was quarantined.
	Screened     int `json:"screened"`
	GateRejected int `json:"gate_rejected"`
	// OffenderAttempts / OffenderRejected score the quarantined repeat
	// offender's benign traffic during the pressure wave.
	OffenderAttempts int `json:"offender_attempts"`
	OffenderRejected int `json:"offender_rejected"`
	// Served / Requests count the legitimate serving waves' outcomes.
	Served   int `json:"served"`
	Requests int `json:"requests"`
	// SteadyPath is the frontier serving probe's critical path at the
	// policy the campaign ended at — for the adaptive row, the annealed
	// floor — and SteadyOverheadPct prices it against the "none" row.
	SteadyPath        vclock.Duration `json:"steady_path_ns"`
	SteadyOverheadPct float64         `json:"steady_overhead_pct"`
	// CriticalPath is the whole campaign's virtual time.
	CriticalPath vclock.Duration `json:"critical_path_ns"`
	// FinalPolicy renders the tier assignment the campaign ended at;
	// AtFloor reports whether the adaptive row annealed all the way back.
	FinalPolicy string `json:"final_policy"`
	AtFloor     bool   `json:"at_floor"`
	// Defense-controller activity (zero on static rows).
	Sightings   int `json:"sightings"`
	Escalations int `json:"escalations"`
	Anneals     int `json:"anneals"`
	Quarantines int `json:"quarantines"`
	Releases    int `json:"releases"`
	Rebinds     int `json:"rebinds"`
	// WatchdogTrips counts DoS resource-watchdog reports the defense loop
	// received (sightings whose signal came from the anomaly hook). Static
	// rows never arm the hook, so the count is zero there by construction.
	WatchdogTrips int `json:"watchdog_trips"`
	// Attacks is the per-delivery record behind the counts.
	Attacks []DefenseAttackOutcome `json:"attacks"`
	// DefenseEvents is the adaptive row's replayable decision log.
	DefenseEvents []string `json:"defense_events,omitempty"`
}

// defenseAttacker and defenseOffender are the campaign's attacker tenant
// ids: the probe-wave attacker becomes the quarantined repeat offender;
// the main wave arrives from a fresh tenant so the drill shows the
// signature blocklist (not just the quarantine gate) doing the blocking.
const (
	defenseOffender = 101
	defenseAttacker = 102
)

// defenseParams tunes the drill's control loop. The windows are tiny on
// purpose: barriers only run between serving waves, and each wave is
// hundreds of microseconds of virtual work, so a clean wave is always a
// full clean window and the anneal arc completes inside one campaign.
func defenseParams() defense.Params {
	return defense.Params{
		Floor:       isolation.ERIM(),
		CleanWindow: vclock.Duration(10 * time.Microsecond),
	}
}

// probeCVEs picks the campaign's probe wave: the first evaluation CVE of
// each vulnerability class, except that the DoS probe prefers the imshow
// crash — the one attack shape that escapes the tiered preset's domain
// tier, so the probe exercises the watchdog channel end to end.
func probeCVEs() []attack.CVE {
	classes := []attack.VulnClass{attack.ClassMemWrite, attack.ClassMemRead, attack.ClassRCE, attack.ClassDoS}
	var out []attack.CVE
	for _, cl := range classes {
		var pick attack.CVE
		found := false
		for _, c := range attack.EvalCVEs() {
			if c.Class != cl {
				continue
			}
			if !found {
				pick, found = c, true
			}
			if cl == attack.ClassDoS && c.API == "cv.imshow" {
				pick = c
			}
		}
		if found {
			out = append(out, pick)
		}
	}
	return out
}

// fireCVEOnShard fires one CVE live on a serving shard through the same
// path as the isolation frontier and reads its class verdict. A host that
// survives has its dead agents restarted before the next request.
func fireCVEOnShard(sh *core.Shard, cve attack.CVE) (blocked, hostDied bool, err error) {
	rt := sh.Rt
	if rt == nil {
		return false, false, fmt.Errorf("report: shard %d has no runtime", sh.ID)
	}
	v, err := fireCVE(rt, cve)
	if err != nil {
		return false, false, err
	}
	if v.hostAlive {
		// Availability first: a process-tier exploit kills only its
		// agent; the supervisor restarts it before the next request.
		_ = rt.RestartDead()
	}
	return v.blocked(cve.Class), !v.hostAlive, nil
}

// deliverAttack sends one exploit from a tenant into the pool: front-door
// screen first (adaptive only), then admission (where a quarantined
// tenant is refused), then the live exploit with its class verdict. A
// host-killing attack marks the shard lost so the next admission drains
// and replaces it through the ordinary failover machinery — the attack's
// blast radius is one shard incarnation, not the campaign. When the host
// survives, repro reprovisions the shard in place (a process-tier DoS
// kills only its agent; the supervisor restarts it, and the service
// reloads the partition state the crash took with it — the model).
func deliverAttack(ex *core.Executor, ctl *defense.Controller, tenant int, cve attack.CVE, repro func(*core.Shard) error) (DefenseAttackOutcome, error) {
	out := DefenseAttackOutcome{CVE: cve.ID, API: cve.API, Class: cve.Class.String()}
	if ctl != nil {
		if err := ctl.Screen(cve.ID); err != nil {
			out.Outcome, out.Blocked = "screened", true
			return out, nil
		}
	}
	sess := ex.SessionFor(tenant, 1)
	defer sess.Finish()
	var blocked, hostDied bool
	var fireErr error
	shardID := -1
	err := sess.Do(func(sh *core.Shard) error {
		shardID = sh.ID
		blocked, hostDied, fireErr = fireCVEOnShard(sh, cve)
		if fireErr == nil && !hostDied && repro != nil {
			fireErr = repro(sh)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, core.ErrQuarantined) {
			out.Outcome, out.Blocked = "quarantined", true
			return out, nil
		}
		return out, err
	}
	if fireErr != nil {
		return out, fireErr
	}
	if hostDied {
		ex.KillShard(shardID, fmt.Sprintf("%s killed the host", cve.ID))
	}
	if blocked {
		out.Outcome, out.Blocked = "contained", true
	} else {
		out.Outcome = "landed"
	}
	return out, nil
}

// runDefenseCampaign drives one policy through the whole campaign. For
// the adaptive row, pol is the controller's floor and the controller
// reconciles at every wave barrier; static rows run the identical
// traffic with no controller.
func runDefenseCampaign(shards, requests int, pol *isolation.Policy, adaptive bool) (DefenseResult, error) {
	reg := all.Registry()
	cat := hybridCatCached(reg)
	res := DefenseResult{Policy: pol.Name, Adaptive: adaptive}

	alog := &attack.Log{}
	var ctl *defense.Controller
	var factory core.ShardFactory
	if adaptive {
		// The dynamic factory re-reads the controller's policy on every
		// (re)build, so a shard re-bound after an escalation comes up at
		// the escalated tiers. Until the controller exists (the initial
		// build below), the floor applies — which is also the
		// controller's starting policy, so the two are consistent.
		factory = core.DynamicShards(reg, cat, func() core.Config {
			p := pol
			if ctl != nil {
				p = ctl.Policy()
			}
			return core.ConfigForIsolation(p)
		}, nil)
	} else {
		factory = core.ProtectedShards(reg, cat, core.ConfigForIsolation(pol))
	}
	ex, err := core.NewExecutor(shards, factory)
	if err != nil {
		return res, err
	}
	defer ex.Close()
	if adaptive {
		ctl = defense.New(ex, defenseParams())
		ex.SetAdmissionGate(ctl.Gate())
	}

	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		return res, err
	}
	arm := func(sh *core.Shard) {
		if sh.Rt == nil {
			return
		}
		if ctl != nil {
			ctl.Arm(sh, alog.Handler())
		} else {
			sh.Rt.OnExploit = alog.Handler()
		}
	}
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

	reqs := apps.GenDetectionRequests(11, requests)
	for i := range reqs {
		reqs[i].Arrival = 0 // closed loop: wave cost measures capacity
	}
	serveWave := func(crashLoop bool) {
		if crashLoop {
			// The crash-looping shard: the last slot dies at its first
			// admission of the wave and fails over mid-traffic, so the
			// defense loop always shares the pool with ordinary churn.
			last := ex.Shards() - 1
			ex.ScheduleKill(last, ex.Shard(last).Clock().Now()+1)
		}
		rs := srv.Serve(reqs)
		res.Served += apps.Served(rs)
		res.Requests += len(reqs)
	}
	barrier := func() {
		if ctl != nil {
			ctl.Tick(ex.CriticalPath())
		}
	}

	// Wave 0: steady pre-attack serving, crash-looping shard armed.
	serveWave(true)
	barrier()

	// Probe wave: one CVE per vulnerability class from the offender
	// tenant — the first sightings. The adaptive row pays its floor's
	// verdicts here; the barrier then arms the blocklist, quarantines
	// the offender, escalates the hit API types, and re-binds the pool.
	for _, cve := range probeCVEs() {
		o, err := deliverAttack(ex, ctl, defenseOffender, cve, srv.Reload)
		if err != nil {
			return res, fmt.Errorf("probe %s: %w", cve.ID, err)
		}
		o.Wave = "probe"
		res.ProbeTotal++
		if o.Blocked {
			res.ProbeBlocked++
		}
		res.Attacks = append(res.Attacks, o)
	}
	barrier()

	// Wave 1: serving under the escalated policy with the crash-looping
	// shard, while the quarantined offender retries benign traffic and
	// is refused at admission.
	serveWave(true)
	off := ex.SessionFor(defenseOffender, 1)
	for i := 0; i < 4; i++ {
		err := off.Do(func(sh *core.Shard) error {
			path := fmt.Sprintf("/srv/offender-%d.img", i)
			sh.K.FS.WriteFile(path, reqs[0].Body)
			_, _, err := sh.Ex.Call("cv.imread", framework.Str(path))
			return err
		})
		res.OffenderAttempts++
		if errors.Is(err, core.ErrQuarantined) {
			res.OffenderRejected++
		}
	}
	off.Finish()

	// Main campaign wave: all 18 evaluation CVEs from a fresh attacker
	// tenant. On the adaptive row every class is on the blocklist, so
	// the whole wave dies at the front door; static rows replay their
	// frontier verdicts live.
	for _, cve := range attack.EvalCVEs() {
		o, err := deliverAttack(ex, ctl, defenseAttacker, cve, srv.Reload)
		if err != nil {
			return res, fmt.Errorf("campaign %s: %w", cve.ID, err)
		}
		o.Wave = "main"
		res.Total++
		if o.Blocked {
			res.Blocked++
		}
		switch o.Outcome {
		case "screened":
			res.Screened++
		case "quarantined":
			res.GateRejected++
		}
		res.Attacks = append(res.Attacks, o)
	}
	barrier()

	// Wave 2: post-storm serving. On the adaptive row the barrier above
	// annealed every escalated type one step (the clean window elapsed
	// during wave 1), so this wave runs back at the floor — the
	// blocklist and gate stay armed, but the tiers are cheap again.
	serveWave(false)
	barrier()

	res.CriticalPath = ex.CriticalPath()

	// Steady-state price: the frontier's fixed serving probe run at the
	// policy the campaign ended at. Measuring on a fresh pool keeps the
	// comparison fair — in-campaign wave costs are skewed by how many
	// shard incarnations and dead-agent restarts each row's attacks
	// caused, which is churn cost, not the steady-state mechanism cost.
	finalPol := pol
	if ctl != nil {
		finalPol = ctl.Policy()
	}
	steady, _, _, err := isolationServing(reg, cat, finalPol, shards, requests)
	if err != nil {
		return res, fmt.Errorf("steady-state probe: %w", err)
	}
	res.SteadyPath = steady
	if ctl != nil {
		st := ctl.Stats()
		res.WatchdogTrips = st.WatchdogTrips
		res.Sightings = st.Sightings
		res.Escalations = st.Escalations
		res.Anneals = st.Anneals
		res.Quarantines = st.Quarantines
		res.Releases = st.Releases
		res.Rebinds = st.Rebinds
		res.FinalPolicy = describePolicy(ctl.Policy())
		res.AtFloor = ctl.Policy().Equal(ctl.Floor())
		for _, e := range ctl.Events() {
			res.DefenseEvents = append(res.DefenseEvents, e.String())
		}
	} else {
		res.FinalPolicy = describePolicy(pol)
		res.AtFloor = true
	}
	return res, nil
}

// describePolicy renders a policy's tier assignment in ConcreteTypes
// order ("loading=process,processing=process,...").
func describePolicy(p *isolation.Policy) string {
	s := ""
	for i, t := range framework.ConcreteTypes() {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%s", t.Long(), p.TierOf(t))
	}
	return s
}

// MeasureDefense runs the campaign over every static preset and the
// adaptive controller, then prices steady-state overhead against the
// unprotected row's final wave. Everything runs in virtual time and is
// deterministic.
func MeasureDefense(shards, requests int) ([]DefenseResult, error) {
	out := make([]DefenseResult, 0, len(isolation.Presets())+1)
	for _, pol := range isolation.Presets() {
		r, err := runDefenseCampaign(shards, requests, pol, false)
		if err != nil {
			return nil, fmt.Errorf("report: defense campaign under %s: %w", pol.Name, err)
		}
		out = append(out, r)
	}
	r, err := runDefenseCampaign(shards, requests, isolation.ERIM(), true)
	if err != nil {
		return nil, fmt.Errorf("report: adaptive defense campaign: %w", err)
	}
	r.Policy = "adaptive"
	out = append(out, r)

	var base vclock.Duration
	for _, row := range out {
		if row.Policy == "none" {
			base = row.SteadyPath
		}
	}
	if base > 0 {
		for i := range out {
			out[i].SteadyOverheadPct = 100 * (float64(out[i].SteadyPath)/float64(base) - 1)
		}
	}
	return out, nil
}

// TableDefense renders the campaign and optionally writes the rows as
// JSON to jsonPath (the BENCH_defense.json artifact).
func TableDefense(jsonPath string) (string, error) {
	results, err := MeasureDefense(4, 64)
	if err != nil {
		return "", err
	}
	campaign, decisions := RenderDefense(results)
	return finish(jsonPath, results, campaign, decisions)
}

// RenderDefense renders campaign rows as the containment/cost table and
// the adaptive row's decision log (nil when no row is adaptive).
func RenderDefense(results []DefenseResult) (campaign, decisions *Table) {
	campaign = &Table{
		Title: "Adaptive defense campaign: probe wave, 18-CVE main wave, steady-state cost (virtual time)",
		Header: []string{"Policy", "Probe", "Main blocked", "Screened", "Gated", "Offender rejected",
			"Steady path", "Steady overhead", "Rebinds", "At floor"},
	}
	for _, r := range results {
		campaign.Add(r.Policy,
			fmt.Sprintf("%d/%d", r.ProbeBlocked, r.ProbeTotal),
			fmt.Sprintf("%d/%d", r.Blocked, r.Total),
			d(r.Screened), d(r.GateRejected),
			fmt.Sprintf("%d/%d", r.OffenderRejected, r.OffenderAttempts),
			r.SteadyPath.String(), fmt.Sprintf("%+.2f%%", r.SteadyOverheadPct),
			d(r.Rebinds), fmt.Sprintf("%v", r.AtFloor))
	}
	campaign.Notes = append(campaign.Notes,
		"Identical campaign per row: steady wave, probe wave (one CVE per class), pressure wave with a",
		"  crash-looping shard and the quarantined offender's benign retries, all 18 CVEs, steady wave.",
		"The adaptive row starts at the erim floor, pays floor verdicts on the probe wave, then blocks the",
		"  entire main wave at the front door: first sighting per class arms the signature blocklist, the",
		"  offending tenant is quarantined, and the hit API types escalate (domain -> process) via live",
		"  shard re-binds through the failover machinery.",
		"Steady overhead prices the final wave after annealing: the adaptive row is back at its floor",
		"  (near-erim cost) while static paper-level containment keeps paying process-tier IPC.")

	for _, r := range results {
		if !r.Adaptive {
			continue
		}
		decisions = &Table{
			Title:  "Adaptive controller decision log (replayable; one line per event)",
			Header: []string{"Event"},
		}
		for _, line := range r.DefenseEvents {
			decisions.Add(line)
		}
		decisions.Notes = append(decisions.Notes,
			fmt.Sprintf("sightings %d, escalations %d, anneals %d, quarantines %d, releases %d, rebinds %d; final policy %s",
				r.Sightings, r.Escalations, r.Anneals, r.Quarantines, r.Releases, r.Rebinds, r.FinalPolicy))
	}
	return campaign, decisions
}
