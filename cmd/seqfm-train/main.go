// Command seqfm-train trains a single model on a single stand-in dataset
// and reports the task's evaluation metrics — the quickest way to compare
// one model against SeqFM on one workload.
//
// Usage:
//
//	seqfm-train -dataset gowalla -model seqfm   -scale small
//	seqfm-train -dataset taobao  -model xdeepfm -epochs 12
//	seqfm-train -dataset beauty  -model rrn
//
// The task (ranking / classification / regression) follows the dataset.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"seqfm/internal/data"
	"seqfm/internal/experiments"
	"seqfm/internal/train"
)

func main() {
	var (
		dataset = flag.String("dataset", "gowalla", "gowalla|foursquare|trivago|taobao|beauty|toys")
		model   = flag.String("model", "seqfm", "model name as in the paper's tables (fm, wide&deep, deepcross, nfm, afm, sasrec, tfm, din, xdeepfm, rrn, hofm, seqfm)")
		scale   = flag.String("scale", "small", "tiny|small|medium|full")
		epochs  = flag.Int("epochs", 0, "override training epochs (0 = scale default)")
		seed    = flag.Int64("seed", 7, "master seed")
		verbose = flag.Bool("v", true, "log per-epoch loss")
	)
	flag.Parse()

	p := experiments.ParamsFor(experiments.Scale(*scale))
	p.Seed = *seed
	if *epochs > 0 {
		p.Epochs = *epochs
	}

	if err := run(p, *dataset, *model, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "seqfm-train:", err)
		os.Exit(1)
	}
}

func run(p experiments.Params, dataset, model string, verbose bool) error {
	ds, err := buildDataset(p, dataset)
	if err != nil {
		return err
	}
	split := data.NewSplit(ds)

	var zoo []experiments.NamedModel
	switch ds.Task {
	case data.Ranking:
		zoo, err = p.RankingModels(ds.Space())
	case data.Classification:
		zoo, err = p.ClassificationModels(ds.Space())
	default:
		zoo, err = p.RegressionModels(ds.Space())
	}
	if err != nil {
		return err
	}
	var m train.Model
	var names []string
	for _, nm := range zoo {
		names = append(names, strings.ToLower(nm.Name))
		if strings.EqualFold(nm.Name, model) {
			m = nm.Model
		}
	}
	if m == nil {
		return fmt.Errorf("model %q not available for %s (have: %s)", model, ds.Task, strings.Join(names, ", "))
	}

	cfg := p.TrainConfig()
	if verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	fmt.Printf("training %s on %s (%d train / %d val / %d test instances)\n",
		model, ds.Name, len(split.Train), len(split.Val), len(split.Test))

	switch ds.Task {
	case data.Ranking:
		hist, err := train.Ranking(m, split, cfg)
		if err != nil {
			return err
		}
		r := train.EvalRanking(m, split, p.EvalConfig())
		fmt.Printf("trained in %.1fs  HR@5=%.3f HR@10=%.3f HR@20=%.3f NDCG@5=%.3f NDCG@10=%.3f NDCG@20=%.3f\n",
			hist.Total.Seconds(), r.HR[5], r.HR[10], r.HR[20], r.NDCG[5], r.NDCG[10], r.NDCG[20])
	case data.Classification:
		hist, err := train.Classification(m, split, cfg)
		if err != nil {
			return err
		}
		r := train.EvalClassification(m, split, p.EvalConfig())
		fmt.Printf("trained in %.1fs  AUC=%.3f RMSE=%.3f\n", hist.Total.Seconds(), r.AUC, r.RMSE)
	default:
		hist, err := train.Regression(m, split, cfg)
		if err != nil {
			return err
		}
		r := train.EvalRegression(m, split, p.EvalConfig())
		fmt.Printf("trained in %.1fs  MAE=%.3f RRSE=%.3f\n", hist.Total.Seconds(), r.MAE, r.RRSE)
	}
	return nil
}

func buildDataset(p experiments.Params, name string) (*data.Dataset, error) {
	switch name {
	case "gowalla":
		g, _, err := p.RankingDatasets()
		return g, err
	case "foursquare":
		_, f, err := p.RankingDatasets()
		return f, err
	case "trivago":
		tv, _, err := p.CTRDatasets()
		return tv, err
	case "taobao":
		_, tb, err := p.CTRDatasets()
		return tb, err
	case "beauty":
		be, _, err := p.RatingDatasets()
		return be, err
	case "toys":
		_, to, err := p.RatingDatasets()
		return to, err
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}
