// Compression pipeline (the Section 6 scenario): train an AMMA teacher,
// distill it into a quarter-width student with a binary-encoded page head,
// quantize to 8 bits, and compare storage and prediction quality — the
// Fig. 13 trade-off in miniature.
//
//	go run ./examples/compression
package main

import (
	"fmt"
	"log"

	"mpgraph"
	"mpgraph/internal/experiments"
	"mpgraph/internal/models"
	"mpgraph/internal/nn"
)

func main() {
	opt := mpgraph.DefaultOptions()
	opt.GraphScale = 11
	opt.TraceIterations = 3
	opt.TrainSamples = 1200
	opt.Epochs = 3
	sys := mpgraph.New(opt)
	wl := mpgraph.Workload{Framework: "powergraph", App: mpgraph.PR, Dataset: "rmat"}

	suite, err := sys.Runner().Suite(wl, experiments.AMMAPage)
	if err != nil {
		log.Fatal(err)
	}
	teacher := suite.AMMAPage
	teacherF1 := models.EvalPageAccAtK(teacher, suite.Test.Samples, 10, 200)
	fmt.Printf("teacher: %d params, acc@10 %.3f\n", nn.CountParams(teacher), teacherF1)

	// Quarter-width student with binary page encoding.
	small := suite.Cfg
	small.AttnDim /= 4
	small.FusionDim /= 4
	small.Heads = 2
	student := models.NewBinaryPage(small, suite.Train.Pages, suite.Train.PCs, 7)
	dsSmall := &models.Dataset{Cfg: small, Samples: suite.Train.Samples, Pages: suite.Train.Pages, PCs: suite.Train.PCs}
	if err := models.DistillPage(student, teacher, dsSmall,
		models.TrainOptions{Epochs: 2, Seed: 3, MaxSamplesPerEpoch: opt.TrainSamples}); err != nil {
		log.Fatal(err)
	}

	// Quantize the distilled student to 8-bit weights.
	rep, err := nn.Quantize(student, 8)
	if err != nil {
		log.Fatal(err)
	}
	testSmall := &models.Dataset{Cfg: small, Samples: suite.Test.Samples, Pages: suite.Test.Pages, PCs: suite.Test.PCs}
	studentAcc := models.EvalPageAccAtK(student, testSmall.Samples, 10, 200)

	ratio := float64(nn.CountParams(teacher)) / float64(nn.CountParams(student))
	fmt.Printf("student: %d params (%.1fx smaller), %d bytes at 8-bit, acc@10 %.3f\n",
		nn.CountParams(student), ratio, rep.StorageBytes, studentAcc)
	fmt.Printf("quantization: max error %.5f, mean error %.6f\n", rep.MaxError, rep.MeanError)
	fmt.Printf("retained %.0f%% of teacher accuracy at %.1fx compression\n",
		100*studentAcc/teacherF1, ratio)
}
