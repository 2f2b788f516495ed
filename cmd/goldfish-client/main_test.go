package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestDeletingEveryRowExits2: a deletion of every local row is refused at
// startup with a usage error, before the client dials the server.
func TestDeletingEveryRowExits2(t *testing.T) {
	if args := os.Getenv("GOLDFISH_CLIENT_ARGS"); args != "" {
		os.Args = append([]string{"goldfish-client"}, strings.Fields(args)...)
		os.Exit(run())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDeletingEveryRowExits2$")
	// Nothing listens on port 1: a client that got as far as dialing fails
	// with exit status 1.
	cmd.Env = append(os.Environ(), "GOLDFISH_CLIENT_ARGS=-addr 127.0.0.1:1 -poison 1 -delete-after 2")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "would delete all") {
		t.Errorf("output does not name the problem:\n%s", out)
	}
}
