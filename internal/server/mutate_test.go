package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	kbiplex "repro"
	"repro/internal/bigraph"
)

// postMutation sends one mutation body and decodes the response.
func postMutation(t *testing.T, ts *httptest.Server, name, body string) (mutationDoc, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/graphs/"+name+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return mutationDoc{}, resp.StatusCode
	}
	var doc mutationDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc, resp.StatusCode
}

// collectStream gathers every solution of a legacy enumerate stream.
func collectStream(t *testing.T, url string) []kbiplex.Solution {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var sols []kbiplex.Solution
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			solutionLine
			summaryLine
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done || line.Error != "" {
			if line.Error != "" {
				t.Fatalf("stream error: %s", line.Error)
			}
			continue
		}
		sols = append(sols, kbiplex.Solution{L: line.L, R: line.R})
	}
	return sols
}

func solutionSet(sols []kbiplex.Solution) map[string]bool {
	set := make(map[string]bool, len(sols))
	for _, s := range sols {
		set[fmt.Sprint(s.L, s.R)] = true
	}
	return set
}

func sameSolutions(a, b []kbiplex.Solution) bool {
	as, bs := solutionSet(a), solutionSet(b)
	if len(as) != len(bs) {
		return false
	}
	for k := range as {
		if !bs[k] {
			return false
		}
	}
	return true
}

// graphEpochDoc reads a graph's epoch from its info document.
func graphEpochDoc(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	var doc map[string]any
	resp := getJSON(t, ts.URL+"/graphs/"+name, &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph info: status %d", resp.StatusCode)
	}
	return uint64(doc["epoch"].(float64))
}

// TestMutateRoundTrip inserts and deletes edges through /v1 and checks
// fresh enumerations track the mutated content exactly.
func TestMutateRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "dyn", 10, 10, 2, 7)
	g := kbiplex.RandomBipartite(10, 10, 2, 7)

	// A batch with one real insert, one duplicate and one delete.
	edits := []bigraph.Edit{{V: 0, U: 0}, {V: 0, U: 0}, {Del: true, V: 1, U: 1}}
	want, res, err := bigraph.ApplyEdits(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	doc, status := postMutation(t, ts, "dyn",
		`{"ops":[{"op":"insert","l":0,"r":0},{"op":"insert","l":0,"r":0},{"op":"delete","l":1,"r":1}]}`)
	if status != http.StatusOK {
		t.Fatalf("mutation status %d", status)
	}
	if doc.Epoch != 1 || doc.Applied != res.Inserted+res.Deleted || doc.Noops != res.Noops {
		t.Fatalf("mutation doc %+v, want epoch 1 applied %d noops %d", doc, res.Inserted+res.Deleted, res.Noops)
	}
	if doc.NumEdges != want.NumEdges() {
		t.Fatalf("num_edges = %d, want %d", doc.NumEdges, want.NumEdges())
	}
	if epoch := graphEpochDoc(t, ts, "dyn"); epoch != 1 {
		t.Fatalf("graph info epoch = %d", epoch)
	}

	wantSols, _, err := kbiplex.EnumerateAll(want, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := collectStream(t, ts.URL+"/graphs/dyn/enumerate?k=1")
	if !sameSolutions(got, wantSols) {
		t.Fatalf("post-mutation enumeration: got %d solutions, want %d", len(got), len(wantSols))
	}

	// A single-op body uses the inline form; a second delete of the same
	// edge is a noop but still advances the epoch.
	if doc, _ := postMutation(t, ts, "dyn", `{"op":"delete","l":1,"r":1}`); doc.Epoch != 2 || doc.Noops != 1 || doc.Applied != 0 {
		t.Fatalf("noop mutation doc %+v", doc)
	}
}

func TestMutateValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "g", 4, 4, 1, 1)
	for _, tc := range []struct {
		name, graph, body string
		want              int
	}{
		{"unknown graph", "nope", `{"op":"insert","l":0,"r":0}`, http.StatusNotFound},
		{"bad op", "g", `{"op":"upsert","l":0,"r":0}`, http.StatusBadRequest},
		{"single and batch", "g", `{"op":"insert","l":0,"r":0,"ops":[{"op":"insert","l":1,"r":1}]}`, http.StatusBadRequest},
		{"neither", "g", `{}`, http.StatusBadRequest},
		{"missing coordinate", "g", `{"op":"insert","l":0}`, http.StatusBadRequest},
		{"negative id", "g", `{"op":"insert","l":-1,"r":0}`, http.StatusBadRequest},
		{"unknown field", "g", `{"op":"insert","l":0,"r":0,"weight":2}`, http.StatusBadRequest},
	} {
		if _, status := postMutation(t, ts, tc.graph, tc.body); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
	}
	if epoch := graphEpochDoc(t, ts, "g"); epoch != 0 {
		t.Fatalf("rejected mutations advanced the epoch to %d", epoch)
	}
}

// TestMutateInvalidatesResultCache primes the result cache, mutates, and
// checks the next enumeration is a miss with the new content.
func TestMutateInvalidatesResultCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "c", 10, 10, 2, 3)
	url := ts.URL + "/graphs/c/enumerate?k=1"

	verdict := func() string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// Drain the stream: a client that hangs up early has not seen the
		// whole result, so the server rightly refuses to cache it.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get(headerCache)
	}
	if v := verdict(); v != "miss" {
		t.Fatalf("first query: cache %q", v)
	}
	if v := verdict(); v != "hit" {
		t.Fatalf("repeat query: cache %q", v)
	}
	// Inserting beyond the current right side is never a noop, so the
	// content CRC is guaranteed to change.
	if doc, status := postMutation(t, ts, "c", `{"op":"insert","l":0,"r":20}`); status != http.StatusOK || doc.Inserted != 1 {
		t.Fatalf("mutation: status %d doc %+v", status, doc)
	}
	if v := verdict(); v != "miss" {
		t.Fatalf("post-mutation query: cache %q, want miss", v)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	rc := stats["result_cache"].(map[string]any)
	if rc["invalidated"].(float64) < 1 {
		t.Fatalf("result cache reports no invalidations: %v", rc)
	}
	mu := stats["mutations"].(map[string]any)
	if mu["batches"].(float64) != 1 || mu["ops"].(float64) != 1 {
		t.Fatalf("mutation stats %v", mu)
	}
}

// TestJobPinsSubmissionEpoch submits a job, mutates the graph, and
// checks the job's spool matches the content at its submission epoch
// while a fresh query sees the mutation.
func TestJobPinsSubmissionEpoch(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "pin", 12, 12, 2, 5)
	g := kbiplex.RandomBipartite(12, 12, 2, 5)

	resp, err := http.Post(ts.URL+"/v1/graphs/pin/jobs", "application/json", strings.NewReader(`{"k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var job jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.Epoch != 0 {
		t.Fatalf("submit: status %d doc %+v", resp.StatusCode, job)
	}

	// Mutate immediately: whether the job has started or not, it runs on
	// the engine captured at submission.
	edits := []bigraph.Edit{{Del: true, V: 0, U: g.NeighL(0)[0]}}
	if doc, status := postMutation(t, ts, "pin",
		fmt.Sprintf(`{"op":"delete","l":0,"r":%d}`, g.NeighL(0)[0])); status != http.StatusOK || doc.Deleted != 1 {
		t.Fatalf("mutation: status %d doc %+v", status, doc)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job)
		if job.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.Error != "" {
		t.Fatalf("job failed: %s", job.Error)
	}

	// The spool is the pre-mutation enumeration...
	wantOld, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	var spool []kbiplex.Solution
	res, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.L == nil && line.R == nil {
			continue // trailer
		}
		spool = append(spool, kbiplex.Solution{L: line.L, R: line.R})
	}
	res.Body.Close()
	if !sameSolutions(spool, wantOld) {
		t.Fatalf("job spool has %d solutions, want the submission epoch's %d", len(spool), len(wantOld))
	}

	// ...while a fresh query reflects the mutation.
	ng, _, err := bigraph.ApplyEdits(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	wantNew, _, err := kbiplex.EnumerateAll(ng, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh := collectStream(t, ts.URL+"/graphs/pin/enumerate?k=1")
	if !sameSolutions(fresh, wantNew) {
		t.Fatalf("fresh query has %d solutions, want the mutated graph's %d", len(fresh), len(wantNew))
	}
	if sameSolutions(fresh, wantOld) {
		t.Fatal("mutation changed nothing the test can observe; pick a different edit")
	}
}

// loadPersistedEdges loads a small persisted graph from explicit edges.
func loadPersistedEdges(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"num_left":4,"num_right":4,"edges":[[0,0],[0,1],[1,0],[1,1],[2,2],[3,3]],"persist":true}`, name)
	resp, err := http.Post(ts.URL+"/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("loading graph: status %d", resp.StatusCode)
	}
}

// TestMutateRestartReplaysJournal kills the server after uncompacted
// mutations and checks the restart replays the journal to the same
// epoch and content.
func TestMutateRestartReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	loadPersistedEdges(t, ts, "wal")
	if doc, status := postMutation(t, ts, "wal", `{"ops":[{"op":"insert","l":2,"r":3},{"op":"delete","l":0,"r":0}]}`); status != http.StatusOK || doc.Epoch != 1 {
		t.Fatalf("mutation: %d %+v", status, doc)
	}
	if doc, status := postMutation(t, ts, "wal", `{"op":"insert","l":3,"r":2}`); status != http.StatusOK || doc.Epoch != 2 {
		t.Fatalf("mutation: %d %+v", status, doc)
	}
	wantSols := collectStream(t, ts.URL+"/graphs/wal/enumerate?k=1")
	wantEdges := 6 + 2 - 1
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal", "wal.wal")); err != nil {
		t.Fatalf("journal file missing after close: %v", err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if epoch := graphEpochDoc(t, ts2, "wal"); epoch != 2 {
		t.Fatalf("restart epoch = %d, want 2", epoch)
	}
	var info map[string]any
	getJSON(t, ts2.URL+"/graphs/wal", &info)
	if int(info["num_edges"].(float64)) != wantEdges {
		t.Fatalf("restart num_edges = %v, want %d", info["num_edges"], wantEdges)
	}
	got := collectStream(t, ts2.URL+"/graphs/wal/enumerate?k=1")
	if !sameSolutions(got, wantSols) {
		t.Fatalf("restart enumeration differs: %d vs %d solutions", len(got), len(wantSols))
	}
	var stats map[string]any
	getJSON(t, ts2.URL+"/stats", &stats)
	mu := stats["mutations"].(map[string]any)
	if mu["replayed_ops"].(float64) != 3 {
		t.Fatalf("replayed_ops = %v, want 3", mu["replayed_ops"])
	}
}

// TestMutateCompaction drives the delta past the threshold and checks
// the journal resets while epoch, content and cache identity survive a
// restart.
func TestMutateCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, JournalCompactOps: 2}

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	loadPersistedEdges(t, ts, "cp")
	if doc, _ := postMutation(t, ts, "cp", `{"op":"insert","l":2,"r":3}`); doc.Compacted {
		t.Fatalf("compacted below threshold: %+v", doc)
	}
	doc, _ := postMutation(t, ts, "cp", `{"op":"insert","l":3,"r":2}`)
	if !doc.Compacted {
		t.Fatalf("threshold crossing did not compact: %+v", doc)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if epoch := graphEpochDoc(t, ts2, "cp"); epoch != 2 {
		t.Fatalf("restart epoch = %d, want 2", epoch)
	}
	var stats map[string]any
	getJSON(t, ts2.URL+"/stats", &stats)
	mu := stats["mutations"].(map[string]any)
	// The delta was folded into the base snapshot: nothing replays.
	if mu["replayed_ops"].(float64) != 0 {
		t.Fatalf("replayed_ops = %v after compaction", mu["replayed_ops"])
	}
	var info map[string]any
	getJSON(t, ts2.URL+"/graphs/cp", &info)
	if int(info["num_edges"].(float64)) != 8 {
		t.Fatalf("restart num_edges = %v, want 8", info["num_edges"])
	}
}

// TestMutateTornJournalBoot corrupts the journal tail between runs; the
// boot must quarantine the tail and recover the good prefix.
func TestMutateTornJournalBoot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	loadPersistedEdges(t, ts, "torn")
	postMutation(t, ts, "torn", `{"op":"insert","l":2,"r":3}`)
	postMutation(t, ts, "torn", `{"op":"insert","l":3,"r":2}`)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "journal", "torn.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if epoch := graphEpochDoc(t, ts2, "torn"); epoch != 2 {
		t.Fatalf("epoch after torn-tail recovery = %d, want 2", epoch)
	}
	var stats map[string]any
	getJSON(t, ts2.URL+"/stats", &stats)
	mu := stats["mutations"].(map[string]any)
	if mu["truncated_tails"].(float64) != 1 {
		t.Fatalf("truncated_tails = %v, want 1", mu["truncated_tails"])
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	var info map[string]any
	getJSON(t, ts2.URL+"/graphs/torn", &info)
	if int(info["num_edges"].(float64)) != 8 {
		t.Fatalf("recovered num_edges = %v, want 8", info["num_edges"])
	}
}

// TestReplaceAndDeleteDropJournal checks both paths that retire a
// graph's content also retire its mutation history.
func TestReplaceAndDeleteDropJournal(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerPair(t, Config{DataDir: dir})
	loadPersistedEdges(t, ts, "r")
	postMutation(t, ts, "r", `{"op":"insert","l":2,"r":3}`)
	if !srv.mut.HasJournal("r") {
		t.Fatal("no journal after mutation")
	}

	// Replacing the graph restarts its history at epoch 0.
	loadPersistedEdges(t, ts, "r")
	if srv.mut.HasJournal("r") {
		t.Fatal("journal survived replace")
	}
	if epoch := graphEpochDoc(t, ts, "r"); epoch != 0 {
		t.Fatalf("epoch after replace = %d", epoch)
	}

	postMutation(t, ts, "r", `{"op":"insert","l":2,"r":3}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/r", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if srv.mut.HasJournal("r") {
		t.Fatal("journal survived delete")
	}
}
