package tramlib

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds vets and tests benchmark/, which is its own
// module compiled against this module's internal packages: `go build ./...`
// and `go test ./...` at the root never see it, so without this an internal
// API change passes tier-1 and still breaks `bash benchmark/run.sh`.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests a second module")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
