package eewa

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A seed count below one is a usage error in both programs that take
// -seeds, as -j is: exit status 2 with the reason, before anything
// runs — not a panic (also status 2: eewa-bench -exp fig8 indexed an
// empty seed list) and not a silent run of the default seeds.
func TestSeedsBelowOneIsAUsageError(t *testing.T) {
	dir := buildCommands(t, "eewa-bench", "eewa-sweep")
	for _, args := range [][]string{
		{"eewa-bench", "-seeds", "0", "-exp", "fig8"},
		{"eewa-bench", "-seeds", "-1", "-exp", "fig6"},
		{"eewa-sweep", "-seeds", "0", "-bench", "md5"},
	} {
		out, err := exec.Command(filepath.Join(dir, args[0]), args[1:]...).CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 || !strings.Contains(string(out), "seed count must be positive") {
			t.Errorf("%s: %v, want exit status 2 and the seed count's error; output:\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// A value repeated on a sweep axis is a usage error too: exit status 2
// naming the axis and the value, before any cell runs, so no CSV is
// written. It used to run the repeated cells again and report them as
// extra seeds of one record.
func TestRepeatedSweepValueIsAUsageError(t *testing.T) {
	dir := buildCommands(t, "eewa-sweep")
	csv := filepath.Join(dir, "out.csv")
	args := []string{"-bench", "md5,md5", "-cores", "16,16", "-policies", "cilk,eewa,eewa", "-seeds", "2", "-csv", csv}
	out, err := exec.Command(filepath.Join(dir, "eewa-sweep"), args...).CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 || !strings.Contains(string(out), "sweep: benchmark md5 is listed twice") {
		t.Errorf("eewa-sweep %s: %v, want exit status 2 and the repeated benchmark's error; output:\n%s", strings.Join(args, " "), err, out)
	}
	if _, err := os.Stat(csv); err == nil {
		t.Error("eewa-sweep wrote a CSV for a grid it rejected")
	}
}

// buildCommands builds the named cmd/ programs into a temporary
// directory and returns it.
func buildCommands(t *testing.T, cmds ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, cmd := range cmds {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return dir
}
