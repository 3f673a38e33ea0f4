"""Synthesized YouTube social-network trace.

The paper's Section III analyses a crawl of 20,310 users and 261,110
videos obtained via the YouTube Data API.  That dataset is proprietary
and long gone, so this subpackage synthesizes a social network with the
same *statistical structure* -- which is all the analysis and the
protocol design consume:

* channel sizes, subscriber counts and per-video views follow heavy-
  tailed distributions (Figs 3-8);
* views inside one channel follow Zipf with exponent ~1 (Fig 9);
* channels focus on few categories; users subscribe within their
  interests, producing the shared-subscriber clustering of Fig 10 and
  the similarity CDF of Fig 12;
* favorites are strongly correlated with views (the Pearson observation
  of [35] quoted under Fig 8);
* upload dates follow the two-year growth curve of Fig 2.

The paper sampled YouTube by BFS because the whole graph was out of
reach; the synthetic corpus is held in full, so the analysis reads all
of it.
"""

from repro.trace.dataset import TraceDataset
from repro.trace.entities import Category, Channel, User, Video
from repro.trace.synthesizer import TraceConfig, TraceSynthesizer, synthesize_trace

__all__ = [
    "TraceDataset",
    "Category",
    "Channel",
    "User",
    "Video",
    "TraceConfig",
    "TraceSynthesizer",
    "synthesize_trace",
]
