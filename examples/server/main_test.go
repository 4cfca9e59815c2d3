package main

import (
	"strings"
	"testing"
)

// runArgs runs the server with a space-separated argument string.
func runArgs(t *testing.T, args string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(strings.Fields(args), &out)
	return out.String(), err
}

// TestAvailability checks the §4.4.2 claim: unprotected, the DoS exploit
// kills the service and later users get nothing; under FreePart only the
// malicious request fails and the service stays up.
func TestAvailability(t *testing.T) {
	out, err := runArgs(t, "")
	if err != nil {
		t.Fatal(err)
	}
	unprotected, rest, ok := strings.Cut(out, "=== FreePart server ===")
	if !ok {
		t.Fatalf("no FreePart act in output:\n%s", out)
	}
	protected, serving, ok := strings.Cut(rest, "=== FreePart serving mode (4 shards) ===")
	if !ok {
		t.Fatalf("no serving act in output:\n%s", out)
	}
	for _, c := range []struct{ act, text, want string }{
		{"unprotected", unprotected, "served 1/4 users\n"},
		{"unprotected", unprotected, "service process alive: false\n"},
		{"FreePart", protected, "served 3/4 users\n"},
		{"FreePart", protected, "service process alive: true\n"},
		{"serving", serving, "Serving: session-sharded executor scaling"},
	} {
		if !strings.Contains(c.text, c.want) {
			t.Errorf("%s act lacks %q:\n%s", c.act, c.want, c.text)
		}
	}
}

// TestActs runs every drill act and checks it prints its drill's table;
// -isolation prints only the named policy's row.
func TestActs(t *testing.T) {
	for _, c := range []struct{ args, want, absent string }{
		{"-kill-shard 2", "Failover: detection serving with one shard killed mid-stream (4 shards, virtual time)", ""},
		{"-autoscale -concurrency 8", "autoscaled 2..8 +locality", ""},
		{"-overload 4 -concurrency 4", "wfq 4x", ""},
		{"-isolation tiered -concurrency 4", "Isolation tiers: blocked CVEs vs serving overhead", "\npaper "},
		{"-defense -concurrency 4", "Adaptive controller decision log", ""},
		{"-slow-shard 2@10 -concurrency 4 -requests 48", "one shard alive but 10x slow (4 shards, virtual time)", ""},
		{"-partition -zipf 1.2", "melt + rebalance", ""},
	} {
		t.Run(c.args, func(t *testing.T) {
			out, err := runArgs(t, c.args)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, c.want) {
				t.Fatalf("output lacks %q:\n%s", c.want, out)
			}
			if c.absent != "" && strings.Contains(out, c.absent) {
				t.Fatalf("output has %q:\n%s", c.absent, out)
			}
		})
	}
}

// TestBadInput checks bad flags return an error before any act prints.
func TestBadInput(t *testing.T) {
	for _, args := range []string{
		"-concurrency 0",
		"-requests -1",
		"-overload -1",
		"-kill-shard 9",
		"-slow-shard 2@1",
		"-slow-shard 9@10",
		"-slow-shard 2",
		"-isolation bogus",
		"-partition -zipf 1",
	} {
		t.Run(args, func(t *testing.T) {
			out, err := runArgs(t, args)
			if err == nil {
				t.Fatalf("no error; output:\n%s", out)
			}
			if out != "" {
				t.Fatalf("printed before failing with %v:\n%s", err, out)
			}
		})
	}
}
