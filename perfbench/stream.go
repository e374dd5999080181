package main

import (
	"math/rand"

	"etap/internal/corpus"
)

// streamBlock is the fixed per-block mix of fresh document kinds; the
// stream repeats it, rotating the focus driver, so every block of
// len(streamBlock) fresh documents has the same make-up.
var streamBlock = []corpus.DocKind{
	corpus.KindRelevant, corpus.KindBackground, corpus.KindRelevant,
	corpus.KindHardNegative, corpus.KindBackground, corpus.KindRelevant,
	corpus.KindBackground, corpus.KindRelevant, corpus.KindBackground,
	corpus.KindHardNegative,
}

// resendEvery makes every resendEvery-th document of the stream a
// re-send of an earlier URL (same body): a re-crawl sees pages again.
const resendEvery = 20

// streamDoc is one document of the stream with its ground truth.
type streamDoc struct {
	doc    *corpus.Document
	resent bool // a repeat of an earlier URL
}

// docStream is a seeded, lazily generated document stream. Its
// generator is advanced past the world's document count, so stream
// URLs never collide with world URLs; its content comes from the
// stream seed, so different seeds give different streams over the
// same trained world.
type docStream struct {
	gen     *corpus.Generator
	pick    *rand.Rand
	n       int // documents emitted, re-sends included
	fresh   int // fresh documents emitted
	sent    []*corpus.Document
	drivers []corpus.Driver
}

func newDocStream(seed int64, world corpus.Config) *docStream {
	cfg := world
	cfg.Seed = seed
	gen := corpus.NewGenerator(cfg)
	// World() draws one document per world page, so afterwards the
	// generator's document numbering continues past the world's.
	gen.World()
	return &docStream{
		gen:     gen,
		pick:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		drivers: corpus.Drivers,
	}
}

// next returns the stream's next document.
func (s *docStream) next() streamDoc {
	s.n++
	if s.n%resendEvery == 0 && len(s.sent) > 0 {
		return streamDoc{doc: s.sent[s.pick.Intn(len(s.sent))], resent: true}
	}
	kind := streamBlock[s.fresh%len(streamBlock)]
	d := s.drivers[(s.fresh/len(streamBlock))%len(s.drivers)]
	s.fresh++
	var doc corpus.Document
	switch kind {
	case corpus.KindRelevant:
		doc = s.gen.RelevantDoc(d)
	case corpus.KindHardNegative:
		doc = s.gen.HardNegativeDoc(d)
	default:
		doc = s.gen.BackgroundDoc()
	}
	s.sent = append(s.sent, &doc)
	return streamDoc{doc: &doc}
}
