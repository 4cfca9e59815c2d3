package chaos

import (
	"time"

	"freepart.dev/freepart/internal/vclock"
)

// KernelPlan configures syscall-level fault injection.
type KernelPlan struct {
	// CrashProb is the per-syscall probability of killing the process
	// mid-call (a segfault inside library code).
	CrashProb float64
	// CrashEveryN, when non-zero, crashes the process deterministically on
	// every Nth targeted syscall, independent of CrashProb — useful for
	// forcing crash loops in tests.
	CrashEveryN uint64
	// TransientProb is the per-syscall probability of an EINTR/EAGAIN-class
	// failure on interruptible I/O calls (read/write/sendto/recvfrom/
	// select); the kernel restarts the call, paying entry cost again.
	TransientProb float64
	// MaxTransient caps consecutive transient failures injected at one call
	// site, so restart loops terminate (default 3).
	MaxTransient int
	// StallProb is the per-syscall probability of a device stall on
	// ioctl/select (a camera or GUI socket that answers late).
	StallProb float64
	// Stall is the virtual time one stall charges.
	Stall vclock.Duration
}

// IPCPlan configures message-level fault injection on agent connections.
type IPCPlan struct {
	// DropProb loses a request or response; the caller times out and the
	// supervisor retries under the same sequence number.
	DropProb float64
	// DupProb delivers a request twice; the server dedup cache must absorb
	// the duplicate.
	DupProb float64
	// CorruptProb flips a payload byte in transit; checksums catch it.
	CorruptProb float64
	// StallProb delays delivery, charging Stall to the virtual clock.
	StallProb float64
	// Stall is the virtual time one slow delivery charges.
	Stall vclock.Duration
}

// DegradePlan configures the gray-failure channel: a shard that is alive —
// no crashes, no drops, every call still completes — but slow. The engine
// inflates the virtual service time of every invocation run on its shard,
// which is exactly how a gray machine presents to a serving fleet: it
// passes every crash-window health check while silently poisoning the
// pool's tail latency. Three profiles compose:
//
//   - persistent slowdown: Factor multiplies every invocation's service
//     time (a thermally throttled or half-broken machine);
//   - intermittent stalls: with StallProb an invocation is charged Stall
//     extra virtual time (a flaky disk or GC-pausing neighbour);
//   - progressive brownout: past BrownoutAfter on the shard clock the
//     effective factor grows by BrownoutSlope per virtual millisecond (a
//     machine sliding into failure), capped at MaxFactor.
//
// The zero value is inert: no randomness is consumed and no time is
// charged, so plans without a degradation profile stay byte-identical to
// the pre-gray engine (replay row TestGrayZeroCost).
type DegradePlan struct {
	// Factor is the persistent service-time multiplier; values <= 1 add
	// nothing. Factor 10 models the canonical "alive but 10x slow" shard.
	Factor float64
	// StallProb is the per-invocation probability of an intermittent stall
	// charging Stall extra virtual time.
	StallProb float64
	// Stall is the virtual time one intermittent stall charges.
	Stall vclock.Duration
	// BrownoutAfter is the shard virtual time progressive brownout starts;
	// meaningful only with BrownoutSlope > 0.
	BrownoutAfter vclock.Duration
	// BrownoutSlope grows the effective factor by this much per virtual
	// millisecond past BrownoutAfter. 0 disables brownout.
	BrownoutSlope float64
	// MaxFactor caps the effective factor (brownout included); 0 means
	// uncapped.
	MaxFactor float64
}

// active reports whether the profile charges anything.
func (d DegradePlan) active() bool {
	return d.Factor > 1 || d.StallProb > 0 || d.BrownoutSlope > 0
}

// factorAt returns the effective slowdown multiplier at shard time t.
func (d DegradePlan) factorAt(t vclock.Duration) float64 {
	f := d.Factor
	if f < 1 {
		f = 1
	}
	if d.BrownoutSlope > 0 && t > d.BrownoutAfter {
		f += d.BrownoutSlope * float64(t-d.BrownoutAfter) / float64(time.Millisecond)
	}
	if d.MaxFactor > 0 && f > d.MaxFactor {
		f = d.MaxFactor
	}
	return f
}

// MemPlan configures spurious memory faults inside agent address spaces.
type MemPlan struct {
	// FaultProb is the per-checked-write probability of a spurious fault
	// (a stray hardware fault or latent memory bug); the access is denied
	// and the owning agent crashes.
	FaultProb float64
	// Page, when non-zero, restricts injection to accesses touching that
	// page index.
	Page uint64
}

// Plan is the full, seeded fault-injection configuration. Two engines built
// from equal plans make identical decisions given the same call pattern.
type Plan struct {
	// Seed drives the engine's deterministic RNG.
	Seed int64
	// TargetPrefix restricts injection to processes whose name carries this
	// prefix; empty defaults to "agent:" so the host is never targeted.
	TargetPrefix string
	Kernel       KernelPlan
	IPC          IPCPlan
	Mem          MemPlan
	// Degrade is the gray-failure profile for the shard this plan's engine
	// is bound to. Unlike the crash channels it is shard-scoped by
	// construction: factories hand each shard its own plan (ForShard or a
	// planOf hook), so "shard 2 is 10x slow" is expressed by giving shard
	// 2's plan a Degrade profile and every other shard a zero one.
	Degrade DegradePlan
}

// WithDegrade returns a copy of the plan carrying the given gray-failure
// profile — the planOf-hook helper for soaks that degrade one shard.
func (p Plan) WithDegrade(d DegradePlan) Plan {
	p.Degrade = d
	return p
}

// DefaultTargetPrefix marks the processes chaos may touch. Host processes
// are never injected: the whole point of the fault model is that only
// partitions fail.
const DefaultTargetPrefix = "agent:"

// Scaled returns a plan exercising every fault site with probabilities
// proportional to intensity (clamped to [0, 1]). Intensity 1 is far beyond
// any realistic fault rate; soak tests run around 0.03–0.08.
func Scaled(seed int64, intensity float64) Plan {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	return Plan{
		Seed:         seed,
		TargetPrefix: DefaultTargetPrefix,
		Kernel: KernelPlan{
			CrashProb:     0.20 * intensity,
			TransientProb: 0.50 * intensity,
			MaxTransient:  3,
			StallProb:     0.30 * intensity,
			Stall:         vclock.Duration(50 * time.Microsecond),
		},
		IPC: IPCPlan{
			DropProb:    0.25 * intensity,
			DupProb:     0.30 * intensity,
			CorruptProb: 0.25 * intensity,
			StallProb:   0.30 * intensity,
			Stall:       vclock.Duration(20 * time.Microsecond),
		},
		Mem: MemPlan{
			FaultProb: 0.05 * intensity,
		},
	}
}

// DerivedSeed mixes a plan seed with a shard id into an independent stream
// seed (a splitmix64 finalizer pass). Derived streams are decorrelated from
// each other and from the root seed, yet fully determined by (seed, shard) —
// the property multi-shard chaos replay rests on.
func DerivedSeed(seed int64, shard int) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ForShard returns the per-shard split of the plan: shard 0 keeps the root
// seed (so a one-shard run is byte-identical to the unsharded engine — the
// serving layer's n=1 compatibility guarantee), every other shard gets a
// seed derived from (plan seed, shard id). Probabilities and target scope
// are unchanged. Each shard must run its own Engine built from its own
// split: one engine cannot be bound to two kernel clocks (Bind panics), and
// sharing one PRNG across concurrently scheduled shards would interleave
// the decision stream nondeterministically.
func (p Plan) ForShard(shard int) Plan {
	if shard == 0 {
		return p
	}
	p.Seed = DerivedSeed(p.Seed, shard)
	return p
}

// targetPrefix returns the effective process-name prefix.
func (p Plan) targetPrefix() string {
	if p.TargetPrefix == "" {
		return DefaultTargetPrefix
	}
	return p.TargetPrefix
}

// maxTransient returns the effective consecutive-transient cap.
func (p Plan) maxTransient() int {
	if p.Kernel.MaxTransient <= 0 {
		return 3
	}
	return p.Kernel.MaxTransient
}
