package afg

import (
	"encoding/json"
	"fmt"
)

// wireGraph is the JSON wire format for an application flow graph. It is the
// contract between the Application Editor (which serialises graphs for
// storage or submission, §2.1 "the user may store the application flow graph
// for future use") and the Site Manager.
type wireGraph struct {
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
	Links []Link     `json:"links"`
}

type wireTask struct {
	ID          TaskID            `json:"id"`
	Function    string            `json:"function"`
	Mode        string            `json:"mode,omitempty"`
	Processors  int               `json:"processors,omitempty"`
	MachineType string            `json:"machineType,omitempty"`
	ComputeCost float64           `json:"computeCost,omitempty"`
	MemReq      int64             `json:"memReq,omitempty"`
	OutputBytes int64             `json:"outputBytes,omitempty"`
	Params      map[string]string `json:"params,omitempty"`
}

// MarshalJSON encodes the graph deterministically (tasks and links sorted).
func (g *Graph) MarshalJSON() ([]byte, error) {
	w := wireGraph{Name: g.Name, Links: g.Links()}
	for _, id := range g.TaskIDs() {
		t := g.tasks[id]
		w.Tasks = append(w.Tasks, wireTask{
			ID:          t.ID,
			Function:    t.Function,
			Mode:        t.Mode.String(),
			Processors:  t.Processors,
			MachineType: t.MachineType,
			ComputeCost: t.ComputeCost,
			MemReq:      t.MemReq,
			OutputBytes: t.OutputBytes,
			Params:      t.Params,
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a graph and validates it (acyclicity included).
// Links get the per-link checks (unknown task, self-link, duplicate, port
// conflict) but not the per-link cycle search: one Kahn pass over the
// decoded graph (Validate) rejects a cycle with ErrCycle, and the Index it
// builds is kept as the graph's cached dense view.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w wireGraph
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("afg: decode: %w", err)
	}
	fresh := New(w.Name)
	for _, wt := range w.Tasks {
		mode := Sequential
		switch wt.Mode {
		case "", "sequential":
		case "parallel":
			mode = Parallel
		default:
			return fmt.Errorf("afg: task %q: unknown mode %q", wt.ID, wt.Mode)
		}
		t := &Task{
			ID:          wt.ID,
			Function:    wt.Function,
			Mode:        mode,
			Processors:  wt.Processors,
			MachineType: wt.MachineType,
			ComputeCost: wt.ComputeCost,
			MemReq:      wt.MemReq,
			OutputBytes: wt.OutputBytes,
			Params:      wt.Params,
		}
		if err := fresh.AddTask(t); err != nil {
			return err
		}
	}
	for _, l := range w.Links {
		if err := fresh.addLink(l, false, false); err != nil {
			return err
		}
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	// Move the decoded state field-by-field: copying the whole struct
	// would copy the dense-view mutex. g's own cached Index, if any, is
	// replaced by the one Validate built over the same tasks and links.
	g.mu.Lock()
	g.Name = fresh.Name
	g.tasks = fresh.tasks
	g.succ = fresh.succ
	g.pred = fresh.pred
	g.gen++
	g.idx, g.idxGen = fresh.idx, g.gen
	g.mu.Unlock()
	return nil
}

// Encode renders the graph as indented JSON.
func (g *Graph) Encode() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// Decode parses a JSON application flow graph.
func Decode(data []byte) (*Graph, error) {
	g := New("")
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}
