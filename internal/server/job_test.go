package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hwatch/internal/experiments"
	"hwatch/internal/scenario"
)

// TestParseJobNamesAreTheTables pins the job kinds to the one target
// table: parseJob accepts every target under its kind/name, a made-up or
// borrowed name is rejected with an error that lists the table, and the
// content addresses of a figure, an ablation, a study and a rung are the
// ones the per-kind parser assigned before the table existed, so no cached
// result moves. There is no second copy of the names to drift.
func TestParseJobNamesAreTheTables(t *testing.T) {
	kinds := map[string][]string{}
	digests := map[string]string{}
	for _, tg := range experiments.Targets() {
		kinds[tg.Kind] = append(kinds[tg.Kind], tg.Name)
		p, digest, err := parseJob(&JobRequest{Kind: tg.Kind, Name: tg.Name, Scale: 0.1})
		if err != nil {
			t.Errorf("%s is in the table but parseJob rejects it: %v", tg.ID(), err)
			continue
		}
		if p.kind != tg.Kind || p.name != tg.Name {
			t.Errorf("%s parsed as %s/%s", tg.ID(), p.kind, p.name)
		}
		if prev, dup := digests[digest]; dup {
			t.Errorf("%s shares its content address with %s", tg.ID(), prev)
		}
		digests[digest] = tg.ID()
	}
	if len(kinds["fig"]) != 5 || len(kinds["ablation"]) != 6 || len(kinds["study"]) != 3 ||
		len(kinds["rung"]) != len(scenario.Rungs()) {
		t.Fatalf("the table lists %d figures, %d ablations, %d studies, %d rungs; the paper's evaluation has 5, 6 and 3, the ladder %d rungs",
			len(kinds["fig"]), len(kinds["ablation"]), len(kinds["study"]), len(kinds["rung"]), len(scenario.Rungs()))
	}
	for kind, names := range kinds {
		_, _, err := parseJob(&JobRequest{Kind: kind, Name: "no-such-name"})
		if err == nil {
			t.Errorf("%s job with a made-up name was accepted", kind)
			continue
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), kind+"/"+name) {
				t.Errorf("%s: error %q does not list the table's %s/%s", kind, err, kind, name)
			}
		}
		// A name from another kind's rows is just as unknown here.
		for other, otherNames := range kinds {
			if other == kind {
				continue
			}
			if _, _, err := parseJob(&JobRequest{Kind: kind, Name: otherNames[0]}); err == nil {
				t.Errorf("%s job accepted the %s name %q", kind, other, otherNames[0])
			}
		}
	}
	for _, c := range []struct {
		req  JobRequest
		want string
	}{
		{JobRequest{Kind: "fig", Name: "fig2", Scale: 0.1}, "5b02edcca0185b09b61fe88dc5d4ada9cfaf4a563270e909ae1ef841daf5145a"},
		{JobRequest{Kind: "ablation", Name: "k", Scale: 0.1}, "1a0c1821623440cf211c9f70548be41a85a56191488114cc173c9adaebd098bc"},
		{JobRequest{Kind: "study", Name: "incast"}, "95c9cd1c2dee48def484cb2d8cd36a7e4657a4e26cdf4f75dfa2c4f1fd51168a"},
		{JobRequest{Kind: "rung", Name: "ladder/1x", Scale: 0.2}, "27bcab9dce59eb0fe4f6f95c37207cf1d99372ae05d15c79e76c4b04e39237a4"},
	} {
		if _, got, err := parseJob(&c.req); err != nil || got != c.want {
			t.Errorf("%s/%s@%v: digest %s (err %v), want %s", c.req.Kind, c.req.Name, c.req.Scale, got, err, c.want)
		}
	}
}

// TestUnencodableResultFailsTheJob: the result is encoded when the job
// completes, so a result that does not marshal — one NaN is enough — ends
// the job failed with the encoder's error, 500 to its waiters, and leaves
// nothing in the cache. It used to be a 200 whose body stopped mid-way.
func TestUnencodableResultFailsTheJob(t *testing.T) {
	s := New(context.Background(), Config{Parallel: 1, Version: "test"})
	defer s.Close()
	p := &parsedJob{kind: "spec"}
	p.run = func(context.Context, func(int64, uint64)) ([]*scenario.Run, []string, error) {
		return []*scenario.Run{{Label: "nan", LongFairness: math.NaN()}}, nil, nil
	}
	j, created, cached, err := s.admit(p, "0123456789abcdef")
	if !created || cached != nil || err != nil {
		t.Fatalf("admit: created=%v cached=%v err=%v", created, cached, err)
	}
	defer j.pin(false)()
	s.start(j)
	<-j.done

	rec := httptest.NewRecorder()
	writeOutcome(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs?wait=1", nil), j)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("waiter got status %d, want 500", rec.Code)
	}
	for _, want := range []string{"encoding result", "NaN"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("waiter got %q, which does not carry %q", rec.Body, want)
		}
	}
	if st := s.statusOf(j); st.State != string(stateFailed) {
		t.Errorf("job state %q, want failed", st.State)
	}
	if entries, bytes := s.cache.size(); entries != 0 || bytes != 0 {
		t.Errorf("the cache holds %d entries, %d bytes after a job that could not be encoded", entries, bytes)
	}
}

// TestCacheEvictsByBytes: the budget is bytes of stored bodies, eviction
// takes the least recently used first, and the newest entry stays even when
// it alone is over budget.
func TestCacheEvictsByBytes(t *testing.T) {
	entry := func(key string, n int) *cacheEntry { return &cacheEntry{key: key, body: make([]byte, n)} }
	c := newResultCache(100)
	c.put(entry("a", 40))
	c.put(entry("b", 40))
	c.get("a") // b is now the least recently used
	c.put(entry("c", 40))
	if _, ok := c.get("b"); ok {
		t.Error("b survived: eviction is not least-recently-used-first")
	}
	if n, bytes := c.size(); n != 2 || bytes != 80 {
		t.Errorf("after three 40-byte puts into 100 bytes: %d entries, %d bytes; want 2, 80", n, bytes)
	}
	c.put(entry("a", 10)) // replacing an entry re-counts it
	if n, bytes := c.size(); n != 2 || bytes != 50 {
		t.Errorf("after replacing a 40-byte body by a 10-byte one: %d entries, %d bytes; want 2, 50", n, bytes)
	}
	c.put(entry("huge", 500))
	if _, ok := c.get("huge"); !ok {
		t.Error("an entry over the whole budget was not kept as the newest")
	}
	if n, bytes := c.size(); n != 1 || bytes != 500 {
		t.Errorf("after a 500-byte put into 100 bytes: %d entries, %d bytes; want 1, 500", n, bytes)
	}
}
