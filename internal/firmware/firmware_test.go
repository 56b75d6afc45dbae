package firmware

import (
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
)

func nopEntry(ctx api.Context, args []api.Value) []api.Value { return nil }

func testImage() *Image {
	img := NewImage("test")
	img.AddCompartment(&Compartment{
		Name: "alpha", CodeSize: 1024, DataSize: 128,
		Exports: []*Export{{Name: "run", MinStack: 256, Entry: nopEntry}},
		Imports: []Import{{Kind: ImportCall, Target: "beta", Entry: "serve"}},
	})
	img.AddCompartment(&Compartment{
		Name: "beta", CodeSize: 2048, DataSize: 64,
		Exports:   []*Export{{Name: "serve", MinStack: 128, Entry: nopEntry}},
		AllocCaps: []AllocCap{{Name: "beta-quota", Quota: 4096}},
	})
	img.AddLibrary(&Library{
		Name: "strutils", CodeSize: 512,
		Funcs: []*Export{{Name: "reverse", Entry: nopEntry}},
	})
	img.AddThread(&Thread{
		Name: "main", Compartment: "alpha", Entry: "run",
		Priority: 1, StackSize: 1024, TrustedStackFrames: 8,
	})
	return img
}

func TestValidateOK(t *testing.T) {
	if err := testImage().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatches(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Image)
		want   string
	}{
		{"unknown call target", func(img *Image) {
			img.Compartment("alpha").AddImport(ImportCall, "ghost", "run")
		}, "unknown compartment"},
		{"unexported entry", func(img *Image) {
			img.Compartment("alpha").AddImport(ImportCall, "beta", "hidden")
		}, "not exported"},
		{"self import", func(img *Image) {
			img.Compartment("alpha").AddImport(ImportCall, "alpha", "run")
		}, "imports itself"},
		{"unknown device", func(img *Image) {
			img.Compartment("alpha").AddImport(ImportMMIO, "warp-drive", "")
		}, "unknown device"},
		{"unknown library", func(img *Image) {
			img.Compartment("alpha").AddImport(ImportLib, "ghostlib", "fn")
		}, "unknown library"},
		{"unknown sealed object", func(img *Image) {
			img.Compartment("alpha").AddImport(ImportSealed, "beta", "no-such-quota")
		}, "unknown sealed object"},
		{"thread without stack", func(img *Image) {
			img.Threads[0].StackSize = 0
		}, "no stack"},
		{"thread into unknown compartment", func(img *Image) {
			img.Threads[0].Compartment = "ghost"
		}, "unknown compartment"},
		{"no threads", func(img *Image) {
			img.Threads = nil
		}, "no threads"},
		{"duplicate compartment", func(img *Image) {
			img.AddCompartment(&Compartment{Name: "alpha"})
		}, "duplicate"},
		{"globals overflow", func(img *Image) {
			img.Compartment("alpha").GlobalsInit = make([]byte, 4096)
		}, "exceeds data size"},
		{"dotted compartment", func(img *Image) {
			img.AddCompartment(&Compartment{Name: "gamma.delta", CodeSize: 64})
		}, `compartment name "gamma.delta" contains '.'`},
		{"dotted export", func(img *Image) {
			img.Compartment("beta").Exports[0].Name = "se.rve"
		}, `export name "se.rve" contains '.'`},
		{"dotted allocation capability", func(img *Image) {
			img.Compartment("beta").AllocCaps[0].Name = "beta.quota"
		}, `allocation capability name "beta.quota" contains '.'`},
		{"dotted static sealed object", func(img *Image) {
			b := img.Compartment("beta")
			b.SealTypes = []string{"kind"}
			b.StaticSealed = []StaticSealedObject{{Name: "obj.1", SealType: "kind", Size: 8}}
		}, `static sealed object name "obj.1" contains '.'`},
		{"dotted library", func(img *Image) {
			img.Libraries[0].Name = "str.utils"
		}, `library name "str.utils" contains '.'`},
		{"dotted library function", func(img *Image) {
			img.Libraries[0].Funcs[0].Name = "re.verse"
		}, `library function name "re.verse" contains '.'`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := testImage()
			tc.mutate(img)
			err := img.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken image")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLinkLayout(t *testing.T) {
	img := testImage()
	l, err := Link(img)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	// Regions must be disjoint and inside SRAM.
	type r struct {
		name string
		reg  Region
	}
	var regions []r
	for name, cl := range l.Comps {
		regions = append(regions,
			r{name + ".code", cl.Code}, r{name + ".data", cl.Data},
			r{name + ".exports", cl.ExportTable}, r{name + ".imports", cl.ImportTable})
	}
	for name, reg := range l.Libs {
		regions = append(regions, r{name + ".code", reg})
	}
	for name, tl := range l.Threads {
		regions = append(regions, r{name + ".stack", tl.Stack}, r{name + ".tstack", tl.TrustedStack})
	}
	regions = append(regions, r{"heap", l.Heap})
	for i, a := range regions {
		if a.reg.Top() > img.SRAM {
			t.Errorf("%s overflows SRAM", a.name)
		}
		for _, b := range regions[i+1:] {
			if a.reg.Size == 0 || b.reg.Size == 0 {
				continue
			}
			if a.reg.Base < b.reg.Top() && b.reg.Base < a.reg.Top() {
				t.Errorf("%s overlaps %s", a.name, b.name)
			}
		}
	}
	if l.Heap.Size < 100*1024 {
		t.Errorf("heap unexpectedly small: %d", l.Heap.Size)
	}
}

func TestLinkRejectsOversized(t *testing.T) {
	img := testImage()
	img.Compartment("alpha").CodeSize = 300 * 1024
	if _, err := Link(img); err == nil {
		t.Fatal("Link accepted an image larger than SRAM")
	}
}

func TestCompartmentOverhead(t *testing.T) {
	// §5.3.1: the base overhead for each additional compartment is 83 B.
	if CompartmentOverheadBytes != 83 {
		t.Fatalf("CompartmentOverheadBytes = %d, want 83", CompartmentOverheadBytes)
	}
}

func TestMeasureFootprint(t *testing.T) {
	img := testImage()
	f := img.Measure()
	if f.CodeBytes != 1024+2048+512 {
		t.Fatalf("CodeBytes = %d", f.CodeBytes)
	}
	if f.StackBytes != 1024 {
		t.Fatalf("StackBytes = %d", f.StackBytes)
	}
	wantTS := uint32(TrustedSaveAreaBytes + 8*TrustedFrameBytes)
	if f.TrustedStackBytes != wantTS {
		t.Fatalf("TrustedStackBytes = %d, want %d", f.TrustedStackBytes, wantTS)
	}
	if f.DataBytes <= f.StackBytes+f.TrustedStackBytes {
		t.Fatal("DataBytes must include globals and metadata")
	}
}

func TestReportRoundTrip(t *testing.T) {
	img := testImage()
	rep, err := BuildReport(img)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	if rep.Compartments["beta"].AllocCaps[0].Quota != 4096 {
		t.Fatal("quota missing from report")
	}
	if len(rep.Compartments["alpha"].Imports) != 1 ||
		rep.Compartments["alpha"].Imports[0].Target != "beta" {
		t.Fatalf("alpha imports = %+v", rep.Compartments["alpha"].Imports)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(b)
	if err != nil {
		t.Fatalf("ParseReport: %v", err)
	}
	if back.Image != "test" || back.HeapSize != rep.HeapSize {
		t.Fatal("report did not survive the JSON round trip")
	}
	if len(back.Threads) != 1 || back.Threads[0].Compartment != "alpha" {
		t.Fatalf("threads = %+v", back.Threads)
	}
}

// TestParseReportRefusesWhatNoLinkerEmits: a report whose facts are
// missing, misplaced or ambiguous must not parse, or a policy checked
// against it could pass for want of them. With the "compartments" key
// misspelled, alpha's import of beta would vanish from every query; with
// a key repeated, the last value would hide the first.
func TestParseReportRefusesWhatNoLinkerEmits(t *testing.T) {
	rep, err := BuildReport(testImage())
	if err != nil {
		t.Fatal(err)
	}
	encode := func(edit func(r *Report)) string {
		r := *rep
		edit(&r)
		b, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	good := encode(func(*Report) {})
	if _, err := ParseReport([]byte(good)); err != nil {
		t.Fatalf("the linker's own report: %v", err)
	}
	for name, src := range map[string]string{
		"misspelled compartments": strings.Replace(good, `"compartments"`, `"compartmens"`, 1),
		"unknown nested field":    strings.Replace(good, `"code_size"`, `"code_sizes"`, 1),
		"trailing data":           good + "{}",
		"repeated compartment":    strings.Replace(good, `"compartments": {`, `"compartments": {"alpha": {},`, 1),
		"field in another case":   strings.Replace(good, `"threads"`, `"Threads"`, 1),
		"zero optional field":     strings.Replace(good, `"data_size"`, `"wrapper_size": 0, "data_size"`, 1),
		"no compartments":         encode(func(r *Report) { r.Compartments = nil }),
		"no threads":              encode(func(r *Report) { r.Threads = nil }),
		"thread in no compartment": encode(func(r *Report) {
			r.Threads = []ThreadReport{{Name: "main", Compartment: "ghost", Entry: "run"}}
		}),
	} {
		if _, err := ParseReport([]byte(src)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}
