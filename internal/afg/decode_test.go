package afg

import (
	"errors"
	"reflect"
	"testing"
)

// Decode adds links without the per-link cycle search and leaves cycles to
// the one Kahn pass of Validate (TestDecodeRejectsCycle). These tests pin
// what else that keeps: every per-link rejection, and the validated Index
// as the decoded graph's cached dense view.

func TestDecodeKeepsPerLinkChecks(t *testing.T) {
	tasks := `[{"id":"a","function":"f"},{"id":"b","function":"f"},{"id":"c","function":"f"}]`
	for name, c := range map[string]struct {
		links string
		want  error
	}{
		"duplicate link": {`[{"From":"a","To":"b"},{"From":"a","To":"b","Port":1}]`, ErrDuplicateLink},
		"port conflict":  {`[{"From":"a","To":"c"},{"From":"b","To":"c"}]`, ErrPortConflict},
		"self link":      {`[{"From":"a","To":"a"}]`, ErrSelfLink},
		"unknown from":   {`[{"From":"x","To":"a"}]`, ErrUnknownTask},
		"unknown to":     {`[{"From":"a","To":"x"}]`, ErrUnknownTask},
	} {
		t.Run(name, func(t *testing.T) {
			data := []byte(`{"name":"bad","tasks":` + tasks + `,"links":` + c.links + `}`)
			if _, err := Decode(data); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestDecodedGraphKeepsValidatedIndex(t *testing.T) {
	data, err := diamondGraph(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	validated := g.idx
	if validated == nil || g.idxGen != g.gen {
		t.Fatal("Decode dropped the Index that Validate built")
	}
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix != validated {
		t.Fatal("Index() on a decoded graph rebuilt the dense view")
	}
	if n := testing.AllocsPerRun(10, func() { g.Index() }); n != 0 {
		t.Fatalf("Index() on a decoded graph allocates %.1f times: it rebuilds", n)
	}
	fresh, err := buildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix, fresh) {
		t.Fatal("kept Index differs from a fresh build of the decoded graph")
	}

	// Unmarshalling into a graph with a cached Index replaces it with the
	// new payload's validated one.
	h := diamondGraph(t)
	if _, err := h.Index(); err != nil {
		t.Fatal(err)
	}
	if err := h.UnmarshalJSON([]byte(`{"name":"pair","tasks":[{"id":"x","function":"f"},{"id":"y","function":"f"}],"links":[{"From":"x","To":"y"}]}`)); err != nil {
		t.Fatal(err)
	}
	hx, err := h.Index()
	if err != nil {
		t.Fatal(err)
	}
	if hx.Len() != 2 || hx.ID(0) != "x" || len(hx.Children(0)) != 1 {
		t.Fatalf("Index after UnmarshalJSON describes the old graph: %v", hx.IDs())
	}
}
