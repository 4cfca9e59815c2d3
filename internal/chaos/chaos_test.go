package chaos_test

import (
	"errors"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
)

// drive pushes a fixed consultation pattern through an engine and returns
// the resulting log.
func drive(e *chaos.Engine, k *kernel.Kernel, agent *kernel.Process) metrics.Log {
	for i := 0; i < 40; i++ {
		e.OnSyscall(agent, kernel.SysRead)
		e.RequestFault(uint64(i), []byte("req"))
		e.ResponseFault(uint64(i), []byte("resp"))
		_ = e.MemFault(agent.Name(), mem.Addr(0x1000+i*64), mem.AccessWrite)
	}
	return e.Events()
}

func TestEngineDeterministicForEqualSeeds(t *testing.T) {
	k := kernel.New()
	agent := k.Spawn("agent:processing")
	plan := chaos.Scaled(42, 0.5)
	a := drive(chaos.New(plan), k, agent)
	b := drive(chaos.New(plan), k, agent)
	if len(a) == 0 {
		t.Fatal("intensity 0.5 over 160 sites should fire at least one fault")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestEngineSeedsDiverge(t *testing.T) {
	k := kernel.New()
	agent := k.Spawn("agent:processing")
	a := drive(chaos.New(chaos.Scaled(1, 0.5)), k, agent)
	b := drive(chaos.New(chaos.Scaled(2, 0.5)), k, agent)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical logs")
	}
}

func TestEngineNeverTargetsHost(t *testing.T) {
	// Host consultations are skipped without consuming randomness, so a
	// run interleaved with arbitrary host activity makes the same agent
	// decisions as one without it.
	k := kernel.New()
	host := k.Spawn("host")
	agent := k.Spawn("agent:loading")
	plan := chaos.Scaled(7, 1)

	interleaved := chaos.New(plan)
	for i := 0; i < 25; i++ {
		f := interleaved.OnSyscall(host, kernel.SysRead)
		if f != (kernel.SyscallFault{}) {
			t.Fatalf("host got injected: %+v", f)
		}
		if err := interleaved.MemFault("host", 0x4000, mem.AccessWrite); err != nil {
			t.Fatalf("host mem access faulted: %v", err)
		}
		interleaved.OnSyscall(agent, kernel.SysOpenat)
	}
	plain := chaos.New(plan)
	for i := 0; i < 25; i++ {
		plain.OnSyscall(agent, kernel.SysOpenat)
	}
	if !reflect.DeepEqual(interleaved.Events(), plain.Events()) {
		t.Fatal("host activity perturbed the agent decision stream")
	}
}

func TestKernelCrashInjection(t *testing.T) {
	k := kernel.New()
	agent := k.Spawn("agent:loading")
	eng := chaos.New(chaos.Plan{Seed: 1, Kernel: chaos.KernelPlan{CrashEveryN: 3}})
	k.SetInjector(eng)
	if err := k.Syscall(agent, kernel.SysOpenat, ""); err != nil {
		t.Fatalf("syscall 1: %v", err)
	}
	if err := k.Syscall(agent, kernel.SysFstat, ""); err != nil {
		t.Fatalf("syscall 2: %v", err)
	}
	err := k.Syscall(agent, kernel.SysRead, "")
	if !errors.Is(err, kernel.ErrProcessDead) {
		t.Fatalf("3rd syscall err = %v, want ErrProcessDead", err)
	}
	if agent.Alive() {
		t.Fatal("agent should be crashed")
	}
	if eng.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", eng.Injected())
	}
}

func TestKernelTransientRestartsChargeTime(t *testing.T) {
	k := kernel.New()
	agent := k.Spawn("agent:loading")
	clean := k.Clock.Now()
	if err := k.Syscall(agent, kernel.SysRead, ""); err != nil {
		t.Fatal(err)
	}
	cleanCost := k.Clock.Now() - clean

	eng := chaos.New(chaos.Plan{
		Seed:   1,
		Kernel: chaos.KernelPlan{TransientProb: 1, MaxTransient: 3},
	})
	k.SetInjector(eng)
	before := k.Clock.Now()
	if err := k.Syscall(agent, kernel.SysRead, ""); err != nil {
		t.Fatalf("transient faults must be restarted, got %v", err)
	}
	if got := k.Clock.Now() - before; got <= cleanCost {
		t.Fatalf("restarted syscall cost %v, want more than clean cost %v", got, cleanCost)
	}
	if eng.Injected() != 3 {
		t.Fatalf("injected = %d, want 3 transients (capped)", eng.Injected())
	}
	if !agent.Alive() {
		t.Fatal("transients must not kill the process")
	}
}

func TestMemFaultOnlyOnTargetWrites(t *testing.T) {
	eng := chaos.New(chaos.Plan{Seed: 1, Mem: chaos.MemPlan{FaultProb: 1}})
	if err := eng.MemFault("agent:processing", 0x2000, mem.AccessRead); err != nil {
		t.Fatalf("reads must not fault: %v", err)
	}
	if err := eng.MemFault("host", 0x2000, mem.AccessWrite); err != nil {
		t.Fatalf("host must not fault: %v", err)
	}
	if err := eng.MemFault("agent:processing", 0x2000, mem.AccessWrite); err == nil {
		t.Fatal("agent write with FaultProb 1 must fault")
	}
}

func TestScaledClampsIntensity(t *testing.T) {
	if p := chaos.Scaled(1, -3); p.Kernel.CrashProb != 0 {
		t.Fatalf("negative intensity should zero probabilities, got %+v", p.Kernel)
	}
	hi := chaos.Scaled(1, 9)
	one := chaos.Scaled(1, 1)
	if hi.Kernel.CrashProb != one.Kernel.CrashProb {
		t.Fatal("intensity should clamp at 1")
	}
}

func TestSpaceAccessHookVetoesAccess(t *testing.T) {
	s := mem.NewSpace()
	r, err := s.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	s.SetAccessHook(func(addr mem.Addr, n int, kind mem.AccessKind) error {
		if kind == mem.AccessWrite {
			return boom
		}
		return nil
	})
	if err := s.Store(r.Base, []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("store err = %v, want hook veto", err)
	}
	if _, err := s.Load(r.Base, 1); err != nil {
		t.Fatalf("read should pass the hook: %v", err)
	}
	s.SetAccessHook(nil)
	if err := s.Store(r.Base, []byte("x")); err != nil {
		t.Fatalf("store after clearing hook: %v", err)
	}
}
