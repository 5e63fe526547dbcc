package main

import (
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/datamodel"
	"repro/internal/mutator"
	"repro/internal/rng"
)

// This file replays the model-side layers of the packet hot path on the
// traced workload's own models and captured packets: datamodel
// generate / fixup / render / crack, mutator pick+mutate, and corpus
// add / donor lookup. The engine runs these inside Step, where the
// benchmark cannot time them without instrumenting the program.

const (
	replayRounds = 200 // instances generated per model
	replayBatch  = 8   // calls per timing, to amortize the clock read
)

type replayOut struct {
	generate, fixup, render, mutate hist // per call
	crack                           hist // per Model.Crack call
	cracked, crackTried             int  // packets cracked by some model / tried
	add, donors                     hist
}

// replayLayers runs the replay for every model set and captured packet.
func replayLayers(seed uint64, models map[string][]*datamodel.Model, captured [][]byte) *replayOut {
	out := &replayOut{}
	r := rng.New(seed)
	var all []*datamodel.Model
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		all = append(all, models[n]...)
	}
	suite := mutator.Suite()
	arena := &datamodel.Arena{}
	var buf []byte
	var leaves []*datamodel.Node
	for _, m := range all {
		for i := 0; i < replayRounds; i++ {
			var inst *datamodel.Node
			t0 := time.Now()
			for j := 0; j < replayBatch; j++ {
				arena.Reset()
				inst = m.GenerateRandomInto(arena, r)
			}
			out.generate.add(time.Since(t0) / replayBatch)

			t0 = time.Now()
			for j := 0; j < replayBatch; j++ {
				m.ApplyFixups(inst)
			}
			out.fixup.add(time.Since(t0) / replayBatch)

			t0 = time.Now()
			for j := 0; j < replayBatch; j++ {
				buf = inst.AppendTo(buf[:0])
			}
			out.render.add(time.Since(t0) / replayBatch)
			sink += uint64(len(buf))

			leaves = inst.Leaves(leaves[:0])
			for _, leaf := range leaves {
				t0 = time.Now()
				if mu := mutator.Pick(r, suite, leaf.Chunk); mu != nil {
					leaf.Data = mu.Mutate(r, leaf.Chunk, leaf.Data, arena)
				}
				out.mutate.add(time.Since(t0))
			}
		}
	}

	// Crack each captured packet with the models in order until one
	// accepts it, as the engine's cracker would with the model that
	// generated it; then feed the cracked trees to a fresh corpus.
	type crackedTree struct {
		model string
		node  *datamodel.Node
	}
	var trees []crackedTree
	for _, pkt := range captured {
		out.crackTried++
		for _, m := range all {
			t0 := time.Now()
			n, err := m.Crack(pkt)
			out.crack.add(time.Since(t0))
			if err == nil {
				out.cracked++
				trees = append(trees, crackedTree{m.Name, n})
				break
			}
		}
	}
	cp := corpus.New(0)
	for _, tr := range trees {
		t0 := time.Now()
		cp.AddNode(tr.model, tr.node)
		out.add.add(time.Since(t0))
	}
	var scratch []corpus.Puzzle
	for _, m := range all {
		for _, c := range m.LinearizeDefault() {
			t0 := time.Now()
			var donors []corpus.Puzzle
			donors, scratch = cp.CrossModelDonorsInto(scratch, c, m.Name)
			out.donors.add(time.Since(t0))
			sink += uint64(len(donors))
		}
	}
	return out
}
