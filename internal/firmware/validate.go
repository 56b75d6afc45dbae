package firmware

import (
	"errors"
	"fmt"
	"strings"
)

// Validate checks the structural integrity of the image: unique names,
// resolvable imports and thread entry points, sane sizes. The loader
// refuses to boot an image that does not validate, mirroring the paper's
// loader being "a lot of invariant and consistency checks" (§3.1.1).
func (img *Image) Validate() error {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if img.SRAM == 0 || img.SRAM%8 != 0 {
		fail("SRAM size %d invalid", img.SRAM)
	}
	// Sealed imports, the audit's import list and the profiler's labels
	// name an entry as "component.entry"; a '.' inside either name would
	// let two different entries share one such name.
	undotted := func(kind, name string) {
		if strings.Contains(name, ".") {
			fail("%s name %q contains '.'", kind, name)
		}
	}

	seen := map[string]bool{}
	for _, c := range img.Compartments {
		if c.Name == "" {
			fail("compartment with empty name")
			continue
		}
		undotted("compartment", c.Name)
		if seen[c.Name] {
			fail("duplicate compartment %q", c.Name)
		}
		seen[c.Name] = true
	}
	for _, l := range img.Libraries {
		undotted("library", l.Name)
		if seen[l.Name] {
			fail("library %q collides with another component", l.Name)
		}
		seen[l.Name] = true
	}

	for _, c := range img.Compartments {
		if uint32(len(c.GlobalsInit)) > c.DataSize {
			fail("%s: globals init (%d bytes) exceeds data size %d",
				c.Name, len(c.GlobalsInit), c.DataSize)
		}
		if c.WrapperCodeSize > c.CodeSize {
			fail("%s: wrapper size exceeds code size", c.Name)
		}
		exports := map[string]bool{}
		for _, e := range c.Exports {
			undotted("export", e.Name)
			if e.Entry == nil {
				fail("%s.%s: nil entry", c.Name, e.Name)
			}
			if exports[e.Name] {
				fail("%s: duplicate export %q", c.Name, e.Name)
			}
			exports[e.Name] = true
		}
		for _, im := range c.Imports {
			switch im.Kind {
			case ImportCall:
				target := img.Compartment(im.Target)
				if target == nil {
					fail("%s imports call to unknown compartment %q", c.Name, im.Target)
				} else if target.Export(im.Entry) == nil {
					fail("%s imports %s.%s which is not exported", c.Name, im.Target, im.Entry)
				} else if im.Target == c.Name {
					fail("%s imports itself", c.Name)
				}
			case ImportLib:
				lib := img.Library(im.Target)
				if lib == nil {
					fail("%s imports unknown library %q", c.Name, im.Target)
				} else if lib.Func(im.Entry) == nil {
					fail("%s imports %s.%s which is not exported", c.Name, im.Target, im.Entry)
				}
			case ImportMMIO:
				if _, _, err := DeviceWindow(im.Target); err != nil {
					fail("%s imports unknown device %q", c.Name, im.Target)
				}
			case ImportSealed:
				owner := img.Compartment(im.Target)
				if owner == nil {
					fail("%s imports sealed object from unknown compartment %q", c.Name, im.Target)
					continue
				}
				found := false
				for _, ac := range owner.AllocCaps {
					if ac.Name == im.Entry {
						found = true
					}
				}
				for _, so := range owner.StaticSealed {
					if so.Name == im.Entry {
						found = true
					}
				}
				if !found {
					fail("%s imports unknown sealed object %s.%s", c.Name, im.Target, im.Entry)
				}
			default:
				fail("%s: unknown import kind %d", c.Name, im.Kind)
			}
		}
		for _, ac := range c.AllocCaps {
			undotted("allocation capability", ac.Name)
			if ac.Name == "" {
				fail("%s: allocation capability with empty name", c.Name)
			}
		}
		types := map[string]bool{}
		for _, st := range c.SealTypes {
			if st == "" {
				fail("%s: empty seal type name", c.Name)
			}
			if types[st] {
				fail("%s: duplicate seal type %q", c.Name, st)
			}
			types[st] = true
		}
		objs := map[string]bool{}
		for _, so := range c.StaticSealed {
			undotted("static sealed object", so.Name)
			if so.Name == "" {
				fail("%s: static sealed object with empty name", c.Name)
			}
			if objs[so.Name] {
				fail("%s: duplicate static sealed object %q", c.Name, so.Name)
			}
			objs[so.Name] = true
			if !types[so.SealType] {
				fail("%s: object %q uses undeclared seal type %q", c.Name, so.Name, so.SealType)
			}
			if so.Size == 0 || uint32(len(so.Init)) > so.Size {
				fail("%s: object %q has bad size", c.Name, so.Name)
			}
		}
	}

	for _, l := range img.Libraries {
		for _, f := range l.Funcs {
			undotted("library function", f.Name)
			if f.Entry == nil {
				fail("library %s.%s: nil entry", l.Name, f.Name)
			}
		}
	}

	sharedNames := map[string]bool{}
	for _, sg := range img.SharedGlobals {
		if sg.Name == "" || sg.Size == 0 {
			fail("shared global with empty name or zero size")
			continue
		}
		if sharedNames[sg.Name] {
			fail("duplicate shared global %q", sg.Name)
		}
		sharedNames[sg.Name] = true
		if len(sg.Writers)+len(sg.Readers) == 0 {
			fail("shared global %q has no grants", sg.Name)
		}
		for _, n := range append(append([]string{}, sg.Writers...), sg.Readers...) {
			if img.Compartment(n) == nil {
				fail("shared global %q grants unknown compartment %q", sg.Name, n)
			}
		}
	}

	if len(img.Threads) == 0 {
		fail("image has no threads")
	}
	for _, t := range img.Threads {
		c := img.Compartment(t.Compartment)
		if c == nil {
			fail("thread %q starts in unknown compartment %q", t.Name, t.Compartment)
			continue
		}
		if c.Export(t.Entry) == nil {
			fail("thread %q entry %s.%s is not exported", t.Name, t.Compartment, t.Entry)
		}
		if t.StackSize == 0 {
			fail("thread %q has no stack", t.Name)
		}
		if t.TrustedStackFrames <= 0 {
			fail("thread %q has no trusted-stack frames", t.Name)
		}
	}

	return errors.Join(errs...)
}
