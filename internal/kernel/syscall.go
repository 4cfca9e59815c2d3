// Package kernel implements the simulated operating-system substrate:
// processes with isolated address spaces, a syscall table with
// seccomp-style filtering, an in-memory filesystem, and simulated devices
// (camera, network, GUI subsystem).
//
// FreePart's prototype relies on OS process isolation and seccomp-BPF. Both
// are replicated here at the semantic level: a process can only reach memory
// through its own address space, and every syscall is dispatched through a
// per-process filter that implements default-deny allowlists, file-
// descriptor argument restrictions (§4.4.1), and PR_SET_NO_NEW_PRIVS
// lockdown.
package kernel

// Sysno names a system call. String-typed so tables and reports read like
// the paper's (Table 7, Fig. 12).
type Sysno string

// System calls modeled by the simulated kernel. The set is the union of the
// calls named in the paper (Fig. 12, Table 7, §4.4.1, §5.3, §A.7) plus the
// handful needed to run the framework workloads.
const (
	SysOpenat       Sysno = "openat"
	SysOpen         Sysno = "open"
	SysClose        Sysno = "close"
	SysRead         Sysno = "read"
	SysWrite        Sysno = "write"
	SysLseek        Sysno = "lseek"
	SysFstat        Sysno = "fstat"
	SysLstat        Sysno = "lstat"
	SysStat         Sysno = "stat"
	SysAccess       Sysno = "access"
	SysUnlink       Sysno = "unlink"
	SysMkdir        Sysno = "mkdir"
	SysGetcwd       Sysno = "getcwd"
	SysBrk          Sysno = "brk"
	SysMmap         Sysno = "mmap"
	SysMunmap       Sysno = "munmap"
	SysMprotect     Sysno = "mprotect"
	SysShmOpen      Sysno = "shm_open"
	SysIoctl        Sysno = "ioctl"
	SysSelect       Sysno = "select"
	SysFcntl        Sysno = "fcntl"
	SysDup          Sysno = "dup"
	SysSocket       Sysno = "socket"
	SysConnect      Sysno = "connect"
	SysAccept       Sysno = "accept"
	SysBind         Sysno = "bind"
	SysListen       Sysno = "listen"
	SysSend         Sysno = "send"
	SysSendto       Sysno = "sendto"
	SysRecvfrom     Sysno = "recvfrom"
	SysFutex        Sysno = "futex"
	SysGetpid       Sysno = "getpid"
	SysGetuid       Sysno = "getuid"
	SysGetrandom    Sysno = "getrandom"
	SysGettimeofday Sysno = "gettimeofday"
	SysClockGettime Sysno = "clock_gettime"
	SysEventfd2     Sysno = "eventfd2"
	SysUmask        Sysno = "umask"
	SysUname        Sysno = "uname"
	SysExit         Sysno = "exit"
	SysFork         Sysno = "fork"
	SysExecve       Sysno = "execve"
	SysKill         Sysno = "kill"
	SysSeccomp      Sysno = "seccomp"
	SysPrctl        Sysno = "prctl"
)
