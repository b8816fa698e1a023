"""Image-conditioned caption autoencoder that supplies hidden-state targets.

The encoder is a two-layer LSTM: a Word LSTM reads the caption, an attention
head grounds each word against the K object features, the resulting scalar
gate (the max attention weight) scales the word embedding, and a Caption
LSTM consumes the gated embeddings.  The decoder is the same class as the
student decoder; only its initial state differs, coming from max pooling the
encoder's final states over the C references.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import (Tensor, ContractError, Tape, backward, mul, neg, no_grad,
                       sum_terms, vec_max)
from .layers import AttentionHead, Embedding, LstmCell
from .student import FcDecoder, UpDownDecoder, teacher_forced

__all__ = [
    "CaptionEncoder", "EncoderFinal", "TeacherAutoencoder", "build_teacher",
    "pool_captions", "pretrain_teacher", "TrainingDiverged",
]


class TrainingDiverged(RuntimeError):
    """Raised when a training loss stops being finite."""


@dataclass
class EncoderFinal:
    """Final (h, c) of both encoder layers for one caption."""
    h1: Tensor
    c1: Tensor
    h2: Tensor
    c2: Tensor


class CaptionEncoder:
    """Word LSTM + grounded attention gate + Caption LSTM."""

    def __init__(self, embedding, hidden_dim, feature_dim, rng):
        self.embedding = embedding
        self.hidden_dim = hidden_dim
        self.word_lstm = LstmCell(embedding.embed_dim, hidden_dim, rng)
        self.attention = AttentionHead(feature_dim, hidden_dim, rng)
        self.caption_lstm = LstmCell(embedding.embed_dim, hidden_dim, rng)

    def encode(self, caption_ids, feats, projected=None, collect_gates=None):
        """Encode one caption (a non-empty id sequence) grounded in feats."""
        if len(caption_ids) == 0:
            raise ContractError("caption encoder: caption is empty")
        if projected is None:
            projected = self.attention.project(feats)
        h = self.hidden_dim
        h1 = Tensor(np.zeros(h))
        c1 = Tensor(np.zeros(h))
        h2 = Tensor(np.zeros(h))
        c2 = Tensor(np.zeros(h))
        for tok in caption_ids:
            e = self.embedding.lookup(tok)
            h1, c1 = self.word_lstm.step(e, h1, c1)
            alpha = self.attention.weights(h1, projected)
            gate = vec_max(alpha)
            if collect_gates is not None:
                collect_gates.append(gate.item())
            h2, c2 = self.caption_lstm.step(mul(gate, e), h2, c2)
        return EncoderFinal(h1, c1, h2, c2)

    def named_parameters(self, prefix="encoder"):
        params = {}
        params.update(self.word_lstm.named_parameters(prefix + ".word_lstm"))
        params.update(self.attention.named_parameters(prefix + ".attention"))
        params.update(self.caption_lstm.named_parameters(prefix + ".caption_lstm"))
        return params


def pool_captions(finals, family):
    """Elementwise max over per-caption encoder finals -> decoder init states.

    The single-LSTM decoder is initialized from the Caption LSTM finals; the
    two-layer decoder additionally initializes its first layer from the Word
    LSTM finals.
    """
    if len(finals) == 0:
        raise ContractError("pool_captions: no encoder outputs to pool")

    def pooled(tensors):
        acc = tensors[0]
        for t in tensors[1:]:
            acc = ad.max_elementwise(acc, t)
        return acc

    h2 = pooled([f.h2 for f in finals])
    c2 = pooled([f.c2 for f in finals])
    if family == "fc":
        return [(h2, c2)]
    if family == "updown":
        h1 = pooled([f.h1 for f in finals])
        c1 = pooled([f.c1 for f in finals])
        return [(h1, c1), (h2, c2)]
    raise ContractError(f"pool_captions: unknown decoder family {family!r}")


class TeacherAutoencoder:
    """Caption encoder plus a decoder architecturally identical to the student."""

    def __init__(self, embedding, encoder, decoder, bos_id=1):
        self.embedding = embedding
        self.encoder = encoder
        self.decoder = decoder
        self.bos_id = bos_id

    @property
    def family(self):
        return self.decoder.family

    def frame(self, content_ids):
        return [self.bos_id] + list(content_ids) + [self.decoder.eos_id]

    def encode_pooled(self, caption_id_lists, feats, projected=None):
        """Encode every caption (content ids) and pool into decoder init states."""
        finals = [self.encoder.encode(self.frame(ids), feats, projected)
                  for ids in caption_id_lists]
        return pool_captions(finals, self.family)

    def traces(self, caption_id_lists, features):
        """Constant teacher state traces [s_0 .. s_T], one per caption.

        The encoder pools over all the captions and the teacher decoder is
        teacher-forced over each from that pooled state.  Runs untaped: the
        teacher is frozen.
        """
        with no_grad():
            ctx = self.decoder.begin(features)
            init = self.encode_pooled(caption_id_lists, ctx.feats)
            return [teacher_forced(self.decoder, ctx, init, ids, False,
                                   self.bos_id).states
                    for ids in caption_id_lists]

    def trace_for_tokens(self, tokens, features):
        """Teacher trace for a generated caption, the sole encoder input."""
        return self.traces([list(tokens)], features)[0]

    def named_parameters(self):
        params = {"embedding.w": self.embedding.w}
        params.update(self.encoder.named_parameters("encoder"))
        for name, p in self.decoder.named_parameters("decoder").items():
            if name != "decoder.embedding.w":  # shared with the encoder
                params[name] = p
        return params

    def freeze(self):
        for p in self.named_parameters().values():
            p.requires_grad = False

    def frozen_hash(self):
        import hashlib
        digest = hashlib.sha256()
        for name, p in sorted(self.named_parameters().items()):
            digest.update(name.encode())
            digest.update(p.data.tobytes())
        return digest.hexdigest()


def build_teacher(vocab_size, family, embed_dim, hidden_dim, feature_dim, seed,
                  eos_id=2, bos_id=1):
    """Deterministically seeded teacher; identical seeds give identical weights."""
    rng = np.random.default_rng(seed)
    embedding = Embedding(vocab_size, embed_dim, rng)
    encoder = CaptionEncoder(embedding, hidden_dim, feature_dim, rng)
    if family == "fc":
        decoder = FcDecoder(vocab_size, embed_dim, hidden_dim, feature_dim,
                            eos_id, rng, embedding=embedding)
    elif family == "updown":
        decoder = UpDownDecoder(vocab_size, embed_dim, hidden_dim, feature_dim,
                                eos_id, rng, embedding=embedding)
    else:
        raise ContractError(f"unknown decoder family {family!r}")
    return TeacherAutoencoder(embedding, encoder, decoder, bos_id=bos_id)


def pretrain_teacher(train_records, vocab, cfg, log=print):
    """Cross-entropy pretraining of the autoencoder.

    Every scene contributes the average reconstruction loss over its C
    references, each decoded from the shared pooled initial state while the
    encoder consumes all references.  The returned teacher is frozen.
    """
    from .training import clip_gradients, sgd_update, zero_gradients

    teacher = build_teacher(len(vocab), cfg.family, cfg.embed_dim, cfg.hidden_dim,
                            train_records[0].features.shape[1], cfg.seed,
                            eos_id=vocab.EOS, bos_id=vocab.BOS)
    params = list(teacher.named_parameters().values())
    rng = np.random.default_rng([cfg.seed, 917])
    history = []
    for epoch in range(cfg.teacher_epochs):
        order = rng.permutation(len(train_records))
        total_loss = 0.0
        correct = 0
        emitted = 0
        for idx in order:
            rec = train_records[int(idx)]
            content = [vocab.encode(cap)[1:-1] for cap in rec.captions]
            with Tape() as tape:
                ctx = teacher.decoder.begin(rec.features)
                projected = teacher.encoder.attention.project(ctx.feats)
                init = teacher.encode_pooled(content, ctx.feats, projected)
                lls = []
                for ids in content:
                    forced = teacher_forced(teacher.decoder, ctx, init, ids,
                                            True, vocab.BOS)
                    lls.append(neg(sum_terms(forced.log_probs)))
                    # argmax of the logits, not of the log-probs: subtracting
                    # the normalizer can round two logits to a tie
                    for lg, tgt in zip(forced.logits, ids + [vocab.EOS]):
                        correct += int(np.argmax(lg.data)) == tgt
                        emitted += 1
                loss = sum_terms(lls) * (1.0 / len(content))
                if not math.isfinite(loss.item()):
                    raise TrainingDiverged(
                        f"teacher loss became {loss.item()} at epoch {epoch}")
                backward(tape, loss)
            clip_gradients(params, cfg.grad_clip)
            sgd_update(params, cfg.lr)
            zero_gradients(params)
            total_loss += loss.item()
        acc = correct / max(1, emitted)
        mean_loss = total_loss / len(train_records)
        history.append({"epoch": epoch, "loss": mean_loss, "token_accuracy": acc})
        log(f"teacher epoch {epoch}: loss {mean_loss:.4f} token_acc {acc:.4f}")
    teacher.freeze()
    return teacher, history
