package iqn

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets the benchmark module against
// this tree. bench/ is its own module (it imports iqn/internal/...
// through a replace directive), so the root `go test ./...` never builds
// it: without this guard an API deletion in eval, ir, directory or
// minerva that breaks bench/adapter.go would pass tier-1 and only fail
// the judge.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
