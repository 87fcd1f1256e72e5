package iqn

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMainsRun builds every example main plus cmd/minerva and
// cmd/synopsize, and runs each at small scale: a main must exit 0 and
// print something. Bad flag values must instead exit 2 with a message
// naming the flag. No other test executes these programs, so without
// this one a change that breaks them only shows when someone runs them
// by hand. (cmd/iqnbench has its own tests.)
func TestMainsRun(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := t.TempDir()
	pkgs := []string{
		"./examples/autonomy", "./examples/churn", "./examples/filesharing",
		"./examples/quickstart", "./examples/websearch",
		"./cmd/minerva", "./cmd/synopsize",
	}
	build := exec.Command(goTool, append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var ids strings.Builder // synopsize reads one ID per line on stdin
	for i := 1; i <= 500; i++ {
		ids.WriteString(strconv.Itoa(i) + "\n")
	}
	runs := []struct {
		name  string
		bin   string // defaults to name
		args  []string
		stdin string
		// badFlag, when set, is the flag a run misuses: the main must exit
		// 2 and name it on stderr.
		badFlag string
	}{
		{name: "autonomy"},
		{name: "churn"},
		{name: "filesharing"},
		{name: "quickstart"},
		{name: "websearch"},
		{name: "minerva", args: []string{"-docs", "1000", "-fragments", "8"}},
		{name: "synopsize", stdin: ids.String()},
		{name: "minerva-bad-agg", bin: "minerva", args: []string{"-agg", "perterm"}, badFlag: "-agg"},
		{name: "minerva-bad-transport", bin: "minerva", args: []string{"-transport", "tpc"}, badFlag: "-transport"},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			name := r.bin
			if name == "" {
				name = r.name
			}
			cmd := exec.Command(filepath.Join(bin, name), r.args...)
			cmd.Stdin = strings.NewReader(r.stdin)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if r.badFlag != "" {
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 2 {
					t.Fatalf("%s %v: err = %v, want exit status 2\nstderr:\n%s", name, r.args, err, stderr.String())
				}
				if !strings.Contains(stderr.String(), r.badFlag) {
					t.Fatalf("%s %v: stderr does not name %s:\n%s", name, r.args, r.badFlag, stderr.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("%s %v: %v\nstderr:\n%s", r.name, r.args, err, stderr.String())
			}
			if len(bytes.TrimSpace(stdout.Bytes())) == 0 {
				t.Fatalf("%s %v printed nothing\nstderr:\n%s", r.name, r.args, stderr.String())
			}
		})
	}
}
