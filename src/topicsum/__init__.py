"""Topic-guided multi-document abstract generation at desk scale.

The pipeline: a topic detector classifies input paragraphs, paragraphs are
grouped by topic, a BiGRU encodes each group, a recurrent topic predictor
walks the abstract sentence by sentence, and a pointer-generator decoder
writes each sentence with copying.  Everything runs on a small tape-based
autodiff core over numpy arrays.
"""

import os

# OpenBLAS's idle workers spin for 2^28 cycles (about 0.1 s) after each
# product by default, taking the second core from the threads the training
# step starts; 2^20 is about 0.4 ms.  Read once, when numpy loads OpenBLAS, so
# it has effect only if numpy is not yet imported; a value already set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .autodiff import Adam, Tape, Tensor, tape, using_dtype
from .checkpoint import load_into, load_tensors, save_tensors
from .config import RunConfig, format_config, load_config
from .corpus import (DatasetSplits, RawArticle, SummarizationExample, Topic,
                     TopicParagraphExample, TopicSchema, build_detector_dataset,
                     label_frequency_stats, load_articles,
                     load_summarization_dataset, load_topic_schema,
                     write_summarization_dataset)
from .detector import (DetectorModel, MeanEmbeddingEncoder, detect_topics,
                       evaluate_detector, train_detector)
from .generator import (DecodeConfig, GeneratorModel, TopicGroups,
                        compute_losses, decode_sentence, encode_topics,
                        generate_abstract, group_paragraphs, init_embeddings,
                        predict_topic_step, teacher_forced_outputs,
                        token_distribution, train_generator)
from .rouge import (EvalReport, RougeScore, dedup_sentences, evaluate_corpus,
                    rouge_l, rouge_n)
from .text import Vocabulary, split_sentences, tokenize

__version__ = "0.1.0"
