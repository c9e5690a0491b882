package scheduler

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The policy registry: every scheduling heuristic registers itself by name
// so callers — site.Manager, the Site.ScheduleBatch RPC, vdce-server's
// -policy flag, the experiments harness — select algorithms as data. A new
// heuristic is a Policy implementation plus one Register call.

// ErrUnknownPolicy reports a Lookup for a name nothing registered.
var ErrUnknownPolicy = errors.New("scheduler: unknown policy")

var (
	registryMu sync.RWMutex
	registry   = map[string]Policy{}
)

// Register installs a policy under p.Name(). It panics on an empty name or
// a duplicate registration — both are programming errors caught at init.
func Register(p Policy) {
	name := p.Name()
	if name == "" {
		panic("scheduler: Register with empty policy name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheduler: policy %q registered twice", name))
	}
	registry[name] = p
}

// Lookup resolves a policy by name. Unknown names return an error wrapping
// ErrUnknownPolicy that lists every registered policy.
func Lookup(name string) (Policy, error) {
	registryMu.RLock()
	p, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (available: %s)",
			ErrUnknownPolicy, name, strings.Join(Policies(), ", "))
	}
	return p, nil
}

// Policies returns the registered policy names, sorted.
func Policies() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The built-in policies. The site policies (faithful/eft/ledger) wrap the
// paper's Site Scheduler engine, heft/cpop are the headline list heuristics
// of Topcuoglu et al., and the rest are the naive evaluation baselines.
func init() {
	Register(sitePolicy{name: "faithful"})
	Register(sitePolicy{name: "eft", eft: true})
	Register(sitePolicy{name: "ledger", eft: true, ledger: true})
	Register(heftPolicy{})
	Register(cpopPolicy{})
	Register(baselinePolicy{kind: "random", pick: pickRandom})
	Register(baselinePolicy{kind: "roundrobin", pick: pickRoundRobin})
	Register(baselinePolicy{kind: "minload", pick: pickMinLoad})
	Register(baselinePolicy{kind: "fastest", pick: pickFastest})
}
