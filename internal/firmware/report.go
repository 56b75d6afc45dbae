package firmware

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Report is the linker-emitted, machine-readable description of a firmware
// image (§4, Fig. 4). It contains every fact the audit policy language can
// query: per-compartment imports (calls, libraries, MMIO windows, sealed
// objects), exports, allocation-capability quotas, error handlers, and
// thread placement. External tools check it against policies without
// access to compartment sources.
type Report struct {
	Image        string                `json:"image"`
	SRAMSize     uint32                `json:"sram_size"`
	HeapSize     uint32                `json:"heap_size"`
	Compartments map[string]CompReport `json:"compartments"`
	Libraries    map[string]LibReport  `json:"libraries"`
	Threads      []ThreadReport        `json:"threads"`
}

// CompReport describes one compartment in the report.
type CompReport struct {
	CodeSize        uint32           `json:"code_size"`
	WrapperSize     uint32           `json:"wrapper_size,omitempty"`
	DataSize        uint32           `json:"data_size"`
	Exports         []ExportReport   `json:"exports"`
	Imports         []ImportReport   `json:"imports"`
	AllocCaps       []AllocCapReport `json:"allocation_capabilities,omitempty"`
	SealTypes       []string         `json:"seal_types,omitempty"`
	StaticSealed    []string         `json:"static_sealed_objects,omitempty"`
	SharedAccess    []SharedReport   `json:"shared_globals,omitempty"`
	HasErrorHandler bool             `json:"has_error_handler"`
}

// SharedReport records one statically-shared global grant.
type SharedReport struct {
	Name   string `json:"name"`
	Access string `json:"access"` // "rw" or "ro"
}

// LibReport describes one shared library in the report.
type LibReport struct {
	CodeSize uint32         `json:"code_size"`
	Exports  []ExportReport `json:"exports"`
}

// ExportReport describes one exported entry point.
type ExportReport struct {
	Function string `json:"function"`
	MinStack uint32 `json:"min_stack"`
	Posture  string `json:"interrupt_posture"`
}

// ImportReport describes one import-table entry.
type ImportReport struct {
	Kind   string `json:"kind"`
	Target string `json:"target"`
	Entry  string `json:"entry,omitempty"`
}

// AllocCapReport describes one static allocation capability.
type AllocCapReport struct {
	Name  string `json:"name"`
	Quota uint32 `json:"quota"`
}

// ThreadReport describes one static thread.
type ThreadReport struct {
	Name        string `json:"name"`
	Compartment string `json:"compartment"`
	Entry       string `json:"entry"`
	Priority    int    `json:"priority"`
	StackSize   uint32 `json:"stack_size"`
}

// BuildReport links the image and emits its audit report.
func BuildReport(img *Image) (*Report, error) {
	layout, err := Link(img)
	if err != nil {
		return nil, err
	}
	return NewReport(img, layout), nil
}

// NewReport emits the audit report of an image that Link laid out as
// layout; the loader hands it the layout it boots from.
func NewReport(img *Image, layout *Layout) *Report {
	r := &Report{
		Image:        img.Name,
		SRAMSize:     img.SRAM,
		HeapSize:     layout.Heap.Size,
		Compartments: make(map[string]CompReport, len(img.Compartments)),
		Libraries:    make(map[string]LibReport, len(img.Libraries)),
	}
	for _, c := range img.Compartments {
		cr := CompReport{
			CodeSize:        c.CodeSize,
			WrapperSize:     c.WrapperCodeSize,
			DataSize:        c.DataSize,
			HasErrorHandler: c.ErrorHandler != nil,
		}
		for _, e := range c.Exports {
			cr.Exports = append(cr.Exports, ExportReport{
				Function: e.Name, MinStack: e.MinStack, Posture: e.Posture.String(),
			})
		}
		for _, im := range c.Imports {
			cr.Imports = append(cr.Imports, ImportReport{
				Kind: im.Kind.String(), Target: im.Target, Entry: im.Entry,
			})
		}
		for _, ac := range c.AllocCaps {
			cr.AllocCaps = append(cr.AllocCaps, AllocCapReport{Name: ac.Name, Quota: ac.Quota})
		}
		cr.SealTypes = append(cr.SealTypes, c.SealTypes...)
		for _, so := range c.StaticSealed {
			cr.StaticSealed = append(cr.StaticSealed, so.Name)
		}
		for _, sg := range img.SharedGlobals {
			for _, w := range sg.Writers {
				if w == c.Name {
					cr.SharedAccess = append(cr.SharedAccess, SharedReport{Name: sg.Name, Access: "rw"})
				}
			}
			for _, rd := range sg.Readers {
				if rd == c.Name {
					cr.SharedAccess = append(cr.SharedAccess, SharedReport{Name: sg.Name, Access: "ro"})
				}
			}
		}
		r.Compartments[c.Name] = cr
	}
	for _, lib := range img.Libraries {
		lr := LibReport{CodeSize: lib.CodeSize}
		for _, f := range lib.Funcs {
			lr.Exports = append(lr.Exports, ExportReport{
				Function: f.Name, MinStack: f.MinStack, Posture: f.Posture.String(),
			})
		}
		r.Libraries[lib.Name] = lr
	}
	for _, t := range img.Threads {
		r.Threads = append(r.Threads, ThreadReport{
			Name: t.Name, Compartment: t.Compartment, Entry: t.Entry,
			Priority: t.Priority, StackSize: t.StackSize,
		})
	}
	return r
}

// JSON serialises the report with stable indentation, for cheriot-audit
// and for humans.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// ParseReport loads a report from JSON and refuses one no linker
// emits: JSON that is not, up to white space, json.Marshal of what it
// decodes to (an unknown or misspelled field, a repeated key, a key in
// another case or order, an optional field written with its zero
// value, a string escaped otherwise, trailing data); no compartments or
// no threads; or a thread in a compartment the report lacks. A policy
// checked against such a report could pass for want of facts: where a
// key repeats, the last value silently wins. The re-encoding comparison
// alone refuses an unknown field too; DisallowUnknownFields is there
// only so that the error names the field.
func ParseReport(b []byte) (*Report, error) {
	var r Report
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	canon, err := json.Marshal(&r)
	if err != nil {
		return nil, err
	}
	var in bytes.Buffer
	if err := json.Compact(&in, b); err != nil || !bytes.Equal(in.Bytes(), canon) {
		return nil, errors.New("not in the linker's canonical encoding (json.Marshal of the decoded report, up to white space), such as " +
			"a repeated key, a key in another case or order, an optional field written with its zero value, a string escaped otherwise, or trailing data")
	}
	if len(r.Compartments) == 0 || len(r.Threads) == 0 {
		return nil, errors.New("no compartments or no threads")
	}
	for _, t := range r.Threads {
		if _, ok := r.Compartments[t.Compartment]; !ok {
			return nil, fmt.Errorf("thread %q runs in compartment %q, which the report lacks", t.Name, t.Compartment)
		}
	}
	return &r, nil
}
