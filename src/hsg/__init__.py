"""Desk-scale teacher/student caption-training laboratory.

A caption autoencoder conditioned on object features supervises the hidden
states of a deployed caption decoder, trained either by joint maximum
likelihood or by self-critical REINFORCE with word-level intermediate
rewards derived from the hidden-state losses.
"""

from .autodiff import (ContractError, DimensionError, Tape, Tensor, backward,
                       grad_check, no_grad)
from .config import RunConfig, load_config
from .corpus import CorpusRecord, Vocabulary, generate_corpus
from .metrics import DocFreq, bleu4, build_doc_freq, cider, rouge_l
from .student import (DecodedRows, FcDecoder, StateTransformNet,
                      UpDownDecoder, beam_search, greedy_decode, sample_decode)
from .teacher import (TeacherAutoencoder, build_teacher, pool_captions,
                      pretrain_teacher)
from .training import (RewardTrace, hsg_gradients, joint_mle_loss,
                       pretrain_state_net, state_loss_trace, train_student)

__version__ = "0.1.0"
