package kernel

import "fmt"

// Filter is a seccomp-style syscall filter attached to a process.
//
// Semantics: when not installed, everything is allowed (the paper's
// initialization grace period — security-critical calls like mprotect and
// connect are needed once during startup, §4.4.1). Install locks the
// allowlist; with NoNewPrivs set, any later attempt to re-install or relax
// the filter is itself a violation.
type Filter struct {
	installed  bool
	noNewPrivs bool
	allowed    map[Sysno]bool
	// fdRules restricts fd-scoped syscalls (ioctl, connect, select, fcntl)
	// to a set of resource labels (e.g. "/dev/camera0", "host:gui").
	// A syscall present in allowed but absent from fdRules is unrestricted;
	// present in both, the target label must match.
	fdRules map[Sysno]map[string]bool
}

// NewFilter returns an uninstalled (allow-everything) filter.
func NewFilter() *Filter {
	return &Filter{
		allowed: make(map[Sysno]bool),
		fdRules: make(map[Sysno]map[string]bool),
	}
}

// Allow adds syscalls to the allowlist. Calling Allow after Install under
// NoNewPrivs is rejected.
func (f *Filter) Allow(calls ...Sysno) error {
	if f.installed && f.noNewPrivs {
		return fmt.Errorf("seccomp: filter locked by PR_SET_NO_NEW_PRIVS")
	}
	for _, c := range calls {
		f.allowed[c] = true
	}
	return nil
}

// RestrictFD limits an fd-scoped syscall to the given resource labels.
func (f *Filter) RestrictFD(call Sysno, labels ...string) error {
	if f.installed && f.noNewPrivs {
		return fmt.Errorf("seccomp: filter locked by PR_SET_NO_NEW_PRIVS")
	}
	m := f.fdRules[call]
	if m == nil {
		m = make(map[string]bool)
		f.fdRules[call] = m
	}
	for _, l := range labels {
		m[l] = true
	}
	return nil
}

// Install activates the filter and sets NoNewPrivs so that subsequent
// modification attempts fail (the paper's anti-tamper measure). A violating
// syscall then kills the process (SECCOMP_RET_KILL): a denied syscall
// means a compromised agent.
func (f *Filter) Install() {
	f.installed = true
	f.noNewPrivs = true
}

// Installed reports whether the filter is active.
func (f *Filter) Installed() bool { return f.installed }

// Allowed reports whether the filter permits the syscall against the given
// resource label ("" when the call is not fd-scoped or has no target).
func (f *Filter) Allowed(call Sysno, label string) bool {
	if !f.installed {
		return true
	}
	if !f.allowed[call] {
		return false
	}
	if rules, ok := f.fdRules[call]; ok && len(rules) > 0 {
		return rules[label]
	}
	return true
}
