package logx

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// captureInit runs o.Init with stderr redirected to a file, logs one record
// at every level through the returned logger, and returns what was written.
func captureInit(t *testing.T, o *Options) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr, def := os.Stderr, slog.Default()
	os.Stderr = f
	defer func() { os.Stderr = stderr; slog.SetDefault(def) }()
	l := o.Init("logx-test")
	if slog.Default() != l {
		t.Error("Init did not install its logger as the slog default")
	}
	l.Debug("at debug", "n", 1)
	l.Info("at info", "n", 2)
	l.Warn("at warn", "n", 3)
	l.Error("at error", "n", 4)
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestInitLevelsAndFormats: every spelling of the shared flags sets the level
// it names (case-insensitive, "" meaning info and text) and the format, each
// record carries the component, and text records have no timestamp.
func TestInitLevelsAndFormats(t *testing.T) {
	levels := map[string]slog.Level{
		"debug": slog.LevelDebug, "DEBUG": slog.LevelDebug,
		"info": slog.LevelInfo, "": slog.LevelInfo, "Info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "WARN": slog.LevelWarn,
		"error": slog.LevelError, "Error": slog.LevelError,
	}
	for _, format := range []string{"text", "", "json", "JSON"} {
		for spelling, level := range levels {
			t.Run(format+"/"+spelling, func(t *testing.T) {
				out := captureInit(t, &Options{Level: spelling, Format: format})
				for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
					if strings.EqualFold(format, "json") {
						var rec map[string]any
						if err := json.Unmarshal([]byte(line), &rec); err != nil {
							t.Fatalf("record %q is not JSON: %v", line, err)
						}
						if rec["component"] != "logx-test" || rec[slog.TimeKey] == nil {
							t.Errorf("record %q lacks component=logx-test or a time", line)
						}
					} else if !strings.Contains(line, "component=logx-test") || strings.Contains(line, "time=") {
						t.Errorf("text record %q: want component=logx-test and no time", line)
					}
				}
				for _, l := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
					msg := "at " + strings.ToLower(l.String())
					if strings.Contains(out, msg) != (l >= level) {
						t.Errorf("record %q written: %v, want %v at level %v", msg, !(l >= level), l >= level, level)
					}
				}
			})
		}
	}
}

// TestBadLogLevelExits2 re-runs this test binary as a child that parses a bad
// -log-level through Flags and calls Init: it must exit 2, naming the flag,
// as any other flag error does.
func TestBadLogLevelExits2(t *testing.T) {
	if os.Getenv("LOGX_BAD_LEVEL_CHILD") == "1" {
		o := Flags()
		if err := flag.CommandLine.Parse([]string{"-log-level", "loud"}); err != nil {
			os.Exit(3)
		}
		o.Init("child")
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBadLogLevelExits2$")
	cmd.Env = append(os.Environ(), "LOGX_BAD_LEVEL_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("child ended with %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `invalid -log-level "loud"`) {
		t.Errorf("stderr %q does not name the bad -log-level", stderr.String())
	}
}
