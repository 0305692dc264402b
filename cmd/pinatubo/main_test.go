package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the command's output")

// mainEnv, set in a re-executed test binary's environment, makes TestMain
// run the command's main on the arguments that follow instead of the
// tests.
const mainEnv = "PINATUBO_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden runs the command on fixed arguments and compares its stdout
// and exit status with testdata/<name>.golden: the fault-path runs CI
// smokes, the invalid knobs that must exit 1, and a run for each rung
// an op's Result can report. Every figure is seeded, so the output is
// byte-stable; go test -update rewrites the goldens.
func TestGolden(t *testing.T) {
	runs := []struct{ name, args string }{
		{"or-faultrate", "-op or -rows 128 -bits 65536 -faultrate 1e-4"},
		{"or-actfail", "-op or -rows 128 -bits 4096 -actfail 0.01"},
		{"and-wearlimit", "-op and -wearlimit 1 -faultseed 9"},
		{"or-ecc", "-op or -rows 128 -bits 65536 -faultrate 1e-3 -verify ecc"},
		{"batch-or", "-batch 8 -op or -rows 128 -faultrate 1e-4"},
		{"plan-or", "-plan 16 -op or -faultrate 1e-5"},
		{"batch-xor-ecc", "-batch 8 -op xor -wearlimit 50 -faultrate 1e-3 -verify ecc"},
		{"invalid-faultrate", "-op or -faultrate NaN"},
		{"invalid-plan-faultrate", "-plan 4 -op or -faultrate NaN"},
		{"invalid-plan", "-plan -3 -op or"},
		{"invalid-batch", "-batch -2 -op or"},
		{"rung-depth-split", "-op or -rows 128 -bits 65536 -faultrate 1e-2 -verify readback"},
		// rung-host-cpu names its rung and then exits 1: Scheduler.Read
		// has no rung past retry, so the run's final verified 65,536-bit
		// read exhausts its attempts (the FOUND line on Scheduler.Read in
		// CHANGES.md). A fix there re-records this golden on purpose.
		// rung-host-cpu-read is the same op on a fault seed whose read
		// completes, so a finished host-cpu run's popcount and fault
		// stats stay pinned.
		{"rung-host-cpu", "-op or -rows 300 -bits 65536 -faultrate 5e-3 -tech stt"},
		{"rung-host-cpu-read", "-op or -rows 300 -bits 65536 -faultrate 5e-3 -tech stt -faultseed 2"},
		{"rung-inter-digital-ecc", "-op xor -bits 4096 -faultrate 1e-1 -wearlimit 2 -verify ecc"},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], strings.Fields(r.args)...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			got := append(stdout.Bytes(), "exit "+strconv.Itoa(code)+"\n"...)
			path := filepath.Join("testdata", r.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("pinatubo %s:\n got:\n%s\nwant:\n%s", r.args, got, want)
			}
		})
	}
}
