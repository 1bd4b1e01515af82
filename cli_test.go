package eewa

import (
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
	dir := t.TempDir()
	for _, cmd := range []string{"eewa-bench", "eewa-sweep"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
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
