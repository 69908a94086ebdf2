package spacesim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	bin       string // where command builds spacesim, ssbench and spacesimd
	buildOnce sync.Once
	buildOut  []byte // go build's output, shown when it fails
	buildErr  error
)

// The smoke tests run the commands as processes, each test in its own
// t.TempDir (which holds the ledgers they write), listeners on port 0.
// TestMain only removes what command built.
func TestMain(m *testing.M) {
	code := m.Run()
	if bin != "" {
		os.RemoveAll(bin)
	}
	os.Exit(code)
}

// command returns line, a built command and its arguments, to run in dir with
// env. Its first call builds the three commands into bin, so that only the
// smoke tests pay for the build, and lists every directory under cmd and
// internal in this process: the test cache keys on what the test opens, so an
// edit to a command's source reruns the smoke tests even under -run.
func command(t *testing.T, dir, line string, env ...string) *exec.Cmd {
	t.Helper()
	buildOnce.Do(func() {
		if bin, buildErr = os.MkdirTemp("", "spacesim-bin-"); buildErr != nil {
			return
		}
		buildOut, buildErr = exec.Command("go", "build", "-o", bin,
			"./cmd/spacesim", "./cmd/ssbench", "./cmd/spacesimd").CombinedOutput()
		for _, root := range []string{"cmd", "internal"} {
			filepath.WalkDir(root, func(string, fs.DirEntry, error) error { return nil })
		}
	})
	check(t, buildErr == nil, "go build: %v\n%s", buildErr, buildOut)
	args := strings.Fields(line)
	cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
	cmd.Dir, cmd.Env = dir, append(os.Environ(), env...)
	return cmd
}

// run runs line in dir and returns its output; a nonzero exit fails the test.
func run(t *testing.T, dir, line string, env ...string) string {
	t.Helper()
	out, err := command(t, dir, line, env...).CombinedOutput()
	check(t, err == nil, "%s: %v\n%s", line, err, out)
	return string(out)
}

// serve starts line in dir, killed at Cleanup, and returns the URL it prints first.
func serve(t *testing.T, dir, line string, env ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := command(t, dir, line, env...)
	cmd.Stderr = os.Stderr
	stdout, _ := cmd.StdoutPipe() // fails only when Stdout is already set
	check(t, cmd.Start() == nil, "%s does not start", line)
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	first, _ := bufio.NewReader(stdout).ReadString('\n') // a short read fails the URL check below
	go io.Copy(io.Discard, stdout)                       // keeps the pipe from filling; ends when Wait closes it
	url := regexp.MustCompile(`http://[^/\s]+`).FindString(first)
	check(t, url != "", "%s printed %q", line, first)
	return url, cmd
}

// waitFor polls cond until it holds, failing the test after two minutes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(2 * time.Minute); !cond(); time.Sleep(10 * time.Millisecond) {
		check(t, time.Now().Before(end), "timed out waiting for %s", what)
	}
}

// check fails the test with the message unless ok.
func check(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Fatalf(format, args...)
	}
}

// readJSON decodes the file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	check(t, err == nil, "%s: %v", path, err)
}

// get returns the body of url's 200 response, decoded as JSON into v unless v is nil.
func get(t *testing.T, url string, v any) []byte {
	t.Helper()
	resp, err := http.Get(url)
	check(t, err == nil, "GET %s: %v", url, err)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	check(t, err == nil && resp.StatusCode == http.StatusOK, "GET %s: status %d, %v", url, resp.StatusCode, err)
	if v != nil {
		check(t, json.Unmarshal(data, v) == nil, "GET %s: not JSON:\n%s", url, data)
	}
	return data
}

// groupRE matches a group header of ledger.WriteGroups text.
var groupRE = regexp.MustCompile(`(?m)^config .*  (\d+ runs \(.*\))$`)

// Two runs write the files their flags name under one config digest, shown
// by `ssbench trend [-gate]` as one group judging run B; the quick analysis
// writes the same report but for its provenance at GOMAXPROCS 1 and 8, and
// `ssbench diff` passes.
func TestSmokeReports(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var runs [][]string // each run's ledger ID and config digest
	for _, r := range []string{"a", "b"} {
		out := run(t, dir, "spacesim -n 600 -procs 3 -steps 2 -ledger runs -report -analysis "+r+".json"+
			" -trace "+r+"t.json -metrics "+r+"m.json")
		var rep struct{ Provenance map[string]any }
		readJSON(t, filepath.Join(dir, r+"t.json"), new(any))
		readJSON(t, filepath.Join(dir, r+"m.json"), new(any))
		readJSON(t, filepath.Join(dir, r+".json"), &rep)
		m := regexp.MustCompile(`ledger: run (\S+) \(config (\w+)\)`).FindStringSubmatch(out)
		check(t, m != nil, "run %s printed no ledger record:\n%s", r, out)
		digest := fmt.Sprint(rep.Provenance["config_digest"])
		check(t, strings.HasPrefix(digest, m[2]), "run %s: report config digest %q, ledger record's %s", r, digest, m[2])
		runs = append(runs, m)
	}
	check(t, runs[0][2] == runs[1][2], "want one config digest: %q", runs)
	for _, gate := range []string{"", " -gate -config " + runs[1][2]} {
		out := run(t, dir, "ssbench trend -ledger runs"+gate)
		g := groupRE.FindAllStringSubmatch(out, -1)
		check(t, len(g) == 1, "trend%s: want one group:\n%s", gate, out)
		check(t, g[0][1] == "2 runs (judged "+runs[1][1]+")", "trend%s: want 2 runs judging %s:\n%s", gate, runs[1][1], out)
	}
	var reports [2]map[string]any
	for i, procs := range []int{1, 8} {
		f := fmt.Sprintf("a%d.json", procs)
		run(t, dir, "ssbench analyze -quick -analysis-out "+f, fmt.Sprint("GOMAXPROCS=", procs))
		readJSON(t, filepath.Join(dir, f), &reports[i])
		delete(reports[i], "provenance")
	}
	check(t, reflect.DeepEqual(reports[0], reports[1]), "the analysis reports at GOMAXPROCS 1 and 8 differ")
	run(t, dir, "ssbench diff a1.json a8.json")
}

// A fault-injected run crashes and recovers bit-identically; the quick sweep
// writes the same JSON but for its provenance at GOMAXPROCS 1 and 2.
func TestSmokeFaults(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var rep struct{ Faults struct{ Crashes int } }
	run(t, dir, "spacesim -n 600 -procs 4 -steps 6 -faults 11 -fault-accel 3000 -verify-recovery -report -analysis f.json")
	readJSON(t, filepath.Join(dir, "f.json"), &rep)
	check(t, rep.Faults.Crashes > 0, "the report has no faults block with a crash")
	var sweeps [2]map[string]any
	for i := range sweeps {
		run(t, dir, fmt.Sprintf("ssbench faultsweep -quick -o s%d.json", i), fmt.Sprint("GOMAXPROCS=", i+1))
		readJSON(t, filepath.Join(dir, fmt.Sprintf("s%d.json", i)), &sweeps[i])
		delete(sweeps[i], "provenance")
	}
	check(t, reflect.DeepEqual(sweeps[0], sweeps[1]), "the sweeps at GOMAXPROCS 1 and 2 differ")
}

// A run on -http serves progress, metrics and a 1 s CPU profile in flight (30
// steps of 30000 bodies on one core, ~4.5 s, outlast it; 10 on two did not).
func TestSmokeLive(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	url, cmd := serve(t, dir, "spacesim -n 30000 -procs 4 -steps 30 -http 127.0.0.1:0 -report -analysis live.json", "GOMAXPROCS=1")
	var progress, rep map[string]any
	get(t, url+"/progress.json", &progress)
	check(t, progress["eta_sec"] != nil, "/progress.json has no eta_sec")
	check(t, strings.Contains(string(get(t, url+"/metrics", nil)), "# TYPE "), "/metrics is not Prometheus text")
	check(t, len(get(t, url+"/debug/pprof/profile?seconds=1", nil)) > 0, "empty CPU profile")
	check(t, cmd.Wait() == nil, "spacesim failed")
	readJSON(t, filepath.Join(dir, "live.json"), &rep)
	check(t, rep["live"] == nil, "the report carries a live block")
}

// spacesimd killed -9 after a job's first checkpoint resumes it on restart; a
// duplicate hits the cache and a no_cache job recomputes, all to one digest
// kept once (one /runs group of 2, no results/); SIGTERM drains to exit 0.
func TestSmokeServe(t *testing.T) {
	t.Parallel()
	dir, daemon := t.TempDir(), "spacesimd -addr 127.0.0.1:0 -state state -workers 1 -ledger="
	type job struct {
		ID, State    string
		ResumedStep  int    `json:"resumed_step"`
		CacheHit     bool   `json:"cache_hit"`
		ResultDigest string `json:"result_digest"`
	}
	submit := func(url, extra string) (j job) {
		body := `{"n":6000,"ranks":4,"steps":20,"checkpoint_every":1,"seed":3` + extra + "}"
		resp, err := http.Post(url+"/jobs", "", strings.NewReader(body))
		check(t, err == nil, "POST %s: %v", body, err)
		defer resp.Body.Close()
		check(t, resp.StatusCode == http.StatusAccepted, "POST %s: status %d", body, resp.StatusCode)
		check(t, json.NewDecoder(resp.Body).Decode(&j) == nil, "POST %s: the reply is not a job", body)
		return j
	}
	done := func(url string, j job) job {
		waitFor(t, "job "+j.ID, func() bool {
			get(t, url+"/jobs/"+j.ID, &j)
			return j.State == "done"
		})
		return j
	}
	url, cmd := serve(t, dir, daemon)
	first := submit(url, "")
	waitFor(t, "a second checkpoint, so that the first is whole", func() bool {
		ck, _ := filepath.Glob(dir + "/state/jobs/*/ck-000002.*")
		return len(ck) > 0
	})
	check(t, cmd.Process.Kill() == nil && cmd.Wait() != nil, "kill -9 failed")
	url, cmd = serve(t, dir, daemon)
	resumed := done(url, first)
	cached := done(url, submit(url, ""))
	fresh := done(url, submit(url, `,"no_cache":true`))
	check(t, resumed.ResumedStep > 0, "the restarted daemon ran job %s from step 0", resumed.ID)
	check(t, resumed.ResultDigest != "", "job %s has no result digest", resumed.ID)
	check(t, cached.CacheHit, "the duplicate job %s missed the cache", cached.ID)
	check(t, !fresh.CacheHit, "the no_cache job %s hit the cache", fresh.ID)
	check(t, cached.ResultDigest == resumed.ResultDigest && fresh.ResultDigest == resumed.ResultDigest,
		"result digests differ: resumed %s, cached %s, recomputed %s", resumed.ResultDigest, cached.ResultDigest, fresh.ResultDigest)
	hits := regexp.MustCompile(`(?m)^spacesim_serve_cache_hits 1$`)
	check(t, hits.Match(get(t, url+"/metrics", nil)), "/metrics does not count the one cache hit")
	g := groupRE.FindAllStringSubmatch(string(get(t, url+"/runs", nil)), -1)
	check(t, len(g) == 1, "/runs shows %d groups, want 1", len(g))
	check(t, g[0][1] == "2 runs (no run with metrics)", "/runs: %q, want a group of 2 results", g[0][1])
	_, err := os.Stat(filepath.Join(dir, "state", "results"))
	check(t, os.IsNotExist(err), "state/results: %v, want no such directory", err)
	check(t, cmd.Process.Signal(syscall.SIGTERM) == nil && cmd.Wait() == nil, "the SIGTERM drain did not exit 0")
}
