package pond

import (
	"encoding/json"

	"pond/internal/fleet"
)

// Injection is one scheduled scenario event — an EMC failure, host
// drain, demand surge, workload drift, or pool resize. Its canonical
// form is the spec string the -inject flag takes (for example
// "emc-fail@t=500:emc=1"); Parse and String round-trip it, and JSON
// marshals it as that string, so the Go API, the CLI, and pondserve
// request bodies all share one parser and one validation path.
//
// The zero Injection is invalid; construct via ParseInjection.
type Injection struct {
	in fleet.Injection
}

// ParseInjection parses a single scenario spec such as
// "surge@t=300:dur=200:x=3" or "drift@t=2000:mag=0.6:cells=0-1".
func ParseInjection(spec string) (Injection, error) {
	in, err := fleet.ParseInjection(spec)
	if err != nil {
		return Injection{}, err
	}
	return Injection{in: in}, nil
}

// ParseInjections parses a comma-separated scenario list; an empty
// string yields nil.
func ParseInjections(s string) ([]Injection, error) {
	ins, err := fleet.ParseInjections(s)
	if err != nil {
		return nil, err
	}
	if len(ins) == 0 {
		return nil, nil
	}
	out := make([]Injection, len(ins))
	for i := range ins {
		out[i] = Injection{in: ins[i]}
	}
	return out, nil
}

// String renders the canonical spec; ParseInjection(in.String())
// reproduces the injection exactly.
func (in Injection) String() string { return in.in.String() }

// Kind is the scenario kind: "emc-fail", "host-drain", "surge",
// "drift", or "resize".
func (in Injection) Kind() string { return in.in.Kind }

// AtSec is the simulated time the injection fires.
func (in Injection) AtSec() float64 { return in.in.AtSec }

// MarshalJSON encodes the injection as its canonical spec string.
func (in Injection) MarshalJSON() ([]byte, error) {
	return json.Marshal(in.in.String())
}

// UnmarshalJSON decodes a spec string, running the same parser and
// checks as the CLI flag.
func (in *Injection) UnmarshalJSON(data []byte) error {
	var spec string
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	parsed, err := fleet.ParseInjection(spec)
	if err != nil {
		return err
	}
	in.in = parsed
	return nil
}
