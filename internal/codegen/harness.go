package codegen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/corpus"
	"repro/internal/interp"
)

// The differential harness: serialize a corpus workload for a
// generated binary, build it, run it, and compare the array end state
// bit for bit against an interpreter engine.

// ioArg mirrors the generated runtime's rtArg.
type ioArg struct {
	Kind string `json:"kind"`
	I    int64  `json:"i,omitempty"`
	Bits uint64 `json:"bits,omitempty"`
	Name string `json:"name,omitempty"`
}

// ioArray mirrors rtArrayIO.
type ioArray struct {
	Name  string   `json:"name"`
	Float bool     `json:"float"`
	Dims  []int64  `json:"dims"`
	Ints  []int64  `json:"ints,omitempty"`
	Bits  []uint64 `json:"bits,omitempty"`
}

type ioCall struct {
	Fn   string  `json:"fn"`
	Args []ioArg `json:"args"`
}

type ioInput struct {
	Workers    int       `json:"workers"`
	FailGuards []string  `json:"fail_guards,omitempty"`
	Arrays     []ioArray `json:"arrays"`
	Calls      []ioCall  `json:"calls"`
}

type ioOutput struct {
	Arrays   []ioArray `json:"arrays"`
	Parallel int64     `json:"parallel"`
	Fallback int64     `json:"fallback"`
	Declined int64     `json:"declined"`
	Seconds  float64   `json:"seconds"`
}

// RunResult is one generated-binary execution.
type RunResult struct {
	// Arrays is the end state by name, decoded back into interpreter
	// arrays for comparison.
	Arrays map[string]*interp.Array
	// Parallel, Fallback and Declined are the binary's region counters,
	// the native analogues of interp.Stats.
	Parallel, Fallback, Declined int64
	// Seconds is the binary-internal wall time of the call sequence
	// (excludes process start and JSON decode).
	Seconds float64
}

// InputFromWork serializes a freshly built workload for a generated
// binary. failGuards lists region labels whose entry verification is
// forced to fail ("*" forces all); nil leaves guards real.
func InputFromWork(w *corpus.Work, workers int, failGuards []string) ([]byte, error) {
	in := ioInput{Workers: workers, FailGuards: failGuards}
	names := make([]string, 0, len(w.Arrays))
	for name := range w.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := w.Arrays[name]
		io := ioArray{Name: name, Float: a.Float, Dims: a.Dims}
		if a.Float {
			io.Bits = make([]uint64, len(a.Flts))
			for i, f := range a.Flts {
				io.Bits[i] = math.Float64bits(f)
			}
		} else {
			io.Ints = a.Ints
		}
		in.Arrays = append(in.Arrays, io)
	}
	for _, c := range w.Calls {
		call := ioCall{Fn: c.Fn}
		for i, arg := range c.Args {
			switch v := arg.(type) {
			case int:
				call.Args = append(call.Args, ioArg{Kind: "int", I: int64(v)})
			case int64:
				call.Args = append(call.Args, ioArg{Kind: "int", I: v})
			case float64:
				call.Args = append(call.Args, ioArg{Kind: "float", Bits: math.Float64bits(v)})
			case *interp.Array:
				call.Args = append(call.Args, ioArg{Kind: "array", Name: v.Name})
			default:
				return nil, fmt.Errorf("call %s arg %d: unsupported type %T", c.Fn, i, arg)
			}
		}
		in.Calls = append(in.Calls, call)
	}
	return json.Marshal(in)
}

// WritePackage writes the emitted package into dir (created if
// missing).
func (p *Package) WritePackage(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"prog.go", p.ProgGo},
		{"subsubrt.go", p.RuntimeGo},
		{"guard.go", p.GuardGo},
		{"loop.go", p.LoopGo},
		{"go.mod", p.GoMod},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// BuildBinary compiles the package in dir and returns the binary path.
func BuildBinary(dir string, race bool) (string, error) {
	bin := filepath.Join(dir, "kernel.bin")
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build in %s: %v\n%s", dir, err, out)
	}
	return bin, nil
}

// RunBinary feeds input to a generated binary and decodes its output.
func RunBinary(bin string, input []byte) (*RunResult, error) {
	cmd := exec.Command(bin)
	cmd.Stdin = bytes.NewReader(input)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", filepath.Base(bin), err, stderr.String())
	}
	var out ioOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("decode output of %s: %v", filepath.Base(bin), err)
	}
	res := &RunResult{
		Arrays:   map[string]*interp.Array{},
		Parallel: out.Parallel,
		Fallback: out.Fallback,
		Declined: out.Declined,
		Seconds:  out.Seconds,
	}
	for _, a := range out.Arrays {
		var arr *interp.Array
		if a.Float {
			arr = interp.NewFloatArray(a.Name, a.Dims...)
			if len(a.Bits) != len(arr.Flts) {
				return nil, fmt.Errorf("array %s: %d values for dims %v", a.Name, len(a.Bits), a.Dims)
			}
			for i, b := range a.Bits {
				arr.Flts[i] = math.Float64frombits(b)
			}
		} else {
			arr = interp.NewIntArray(a.Name, a.Dims...)
			if len(a.Ints) != len(arr.Ints) {
				return nil, fmt.Errorf("array %s: %d values for dims %v", a.Name, len(a.Ints), a.Dims)
			}
			copy(arr.Ints, a.Ints)
		}
		res.Arrays[arr.Name] = arr
	}
	return res, nil
}
