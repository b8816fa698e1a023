"""Image-conditioned caption autoencoder that supplies hidden-state targets.

The encoder is a two-layer LSTM: a Word LSTM reads the caption, an attention
head grounds each word against the K object features, the resulting scalar
gate (the max attention weight) scales the word embedding, and a Caption
LSTM consumes the gated embeddings.  The Word LSTM never reads the Caption
LSTM, so a pass runs layer by layer: each LSTM is one lstm_layer from a zero
state over all token positions, and one attention pass between them gates
every position.  lstm_layer is the one LSTM kernel: a decoder's lstm_step is
the same call over one step from the decoder's state.
The encoder's finals have the layout of a decoder state, [(h1, c1),
(h2, c2)] with the Word LSTM first.  The decoder is the same class as the
student decoder; only its initial state differs: a decoder with n layers
starts from the max over the C references of the encoder's top n layers,
pooled into one row.  Both run a scene's C captions as one row batch; a
single caption is a batch of one row.
"""

import math

import numpy as np

from .autodiff import (ContractError, DimensionError, Tape, Tensor, backward,
                       check_index, max_rows, neg, no_grad, scale_rows,
                       scene_attention, stack_rows, vec_max)
from .layers import AttentionHead, Embedding, LstmCell, lstm_layer
from .student import DECODERS, state_rows, teacher_forced
from .training import TrainingDiverged, capped_runs, sgd_step

__all__ = [
    "CaptionEncoder", "TeacherAutoencoder", "build_teacher", "pool_captions",
    "pretrain_teacher",
]


class CaptionEncoder:
    """Word LSTM + grounded attention gate + Caption LSTM."""

    def __init__(self, embedding, hidden_dim, feature_dim, rng):
        self.embedding = embedding
        self.hidden_dim = hidden_dim
        self.word_lstm = LstmCell(embedding.embed_dim, hidden_dim, rng)
        self.attention = AttentionHead(feature_dim, hidden_dim, rng)
        self.caption_lstm = LstmCell(embedding.embed_dim, hidden_dim, rng)

    def encode(self, captions, feats, scene=None):
        """Encode C captions (non-empty id sequences) grounded in feats, the
        (S, K, d) feature stack of S scenes; caption i belongs to scene
        scene[i] (None: every caption to the only scene).

        The pass runs layer by layer over the captions packed longest first
        (lstm_layer's layout): the Word LSTM over every position, then one
        attention pass that gates every position's embedding, then the
        Caption LSTM over the gated embeddings.  Returns the finals as a
        decoder state [(h1, c1), (h2, c2)] of (C, H) rows in caption order,
        the Word LSTM first.
        """
        if not captions or any(len(ids) == 0 for ids in captions):
            raise ContractError("caption encoder: caption is empty")
        if feats.data.ndim != 3:
            raise DimensionError(
                f"caption encoder: expected (S, K, d) features, got {feats.data.shape}")
        if scene is None:
            if feats.data.shape[0] != 1:
                raise ContractError(
                    f"caption encoder: {feats.data.shape[0]} scenes need a scene "
                    f"per caption")
            scene = np.zeros(len(captions), dtype=np.intp)
        elif np.shape(scene) != (len(captions),):
            raise DimensionError(
                f"caption encoder: {np.size(scene)} scene ids for {len(captions)} captions")
        keys = self.attention.keys(feats)
        lengths = np.array([len(ids) for ids in captions])
        order = np.argsort(-lengths, kind="stable")
        ids = np.zeros((lengths.max(), len(captions)), dtype=np.intp)  # step x sorted caption
        for col, i in enumerate(order.tolist()):
            ids[:lengths[i], col] = captions[i]
        # step t's rows are the captions with more than t ids, longest first
        live = np.arange(ids.shape[0])[:, None] < lengths[order]
        batch_sizes = live.sum(axis=1)
        row_scene = np.broadcast_to(np.asarray(scene)[order], ids.shape)[live]
        e = self.embedding.lookup(ids[live])
        zero = Tensor(np.zeros((len(captions), self.hidden_dim)))
        h1_all, word_final = lstm_layer(self.word_lstm, e, batch_sizes, (zero, zero))
        gate = vec_max(scene_attention(h1_all, keys, feats, row_scene)[0])
        del h1_all  # an untaped pass frees the word LSTM's rows here
        _h2_all, caption_final = lstm_layer(self.caption_lstm, scale_rows(gate, e),
                                            batch_sizes, (zero, zero))
        final = [word_final, caption_final]
        if np.any(order != np.arange(order.size)):
            final = state_rows(final, np.argsort(order))
        return final

    def named_parameters(self, prefix="encoder"):
        params = {}
        params.update(self.word_lstm.named_parameters(prefix + ".word_lstm"))
        params.update(self.attention.named_parameters(prefix + ".attention"))
        params.update(self.caption_lstm.named_parameters(prefix + ".caption_lstm"))
        return params


def pool_captions(final, n_layers, scene=None):
    """The init state of a decoder with n_layers layers: the elementwise max
    over each scene's captions of the encoder's top n_layers layers of
    finals, as (S, H) rows, one per scene; ties take the scene's earliest
    caption.  Caption i belongs to scene scene[i] (None: all to one scene).

    So the single-LSTM decoder starts from the Caption LSTM, and the
    two-layer decoder's first layer from the Word LSTM.
    """
    return [(max_rows(h, scene), max_rows(c, scene)) for h, c in final[-n_layers:]]


class TeacherAutoencoder:
    """Caption encoder plus a decoder architecturally identical to the student."""

    def __init__(self, encoder, decoder):
        self.encoder = encoder
        self.decoder = decoder

    def frame(self, content_ids):
        return [self.decoder.bos_id] + list(content_ids) + [self.decoder.eos_id]

    def encode_pooled(self, caption_id_lists, feats, scene=None):
        """Encode every caption (content ids) and pool each scene's captions
        into decoder init states: one row per scene of the (S, K, d) feats,
        with caption i in scene scene[i] (None: one scene).  An encoder pass
        holds every framed position of its captions, so with a scene index
        the scenes run in passes of at most MAX_PASS_ROWS positions, or one
        scene (capped_runs), and feats is data: no gradient reaches it."""
        framed = [self.frame(ids) for ids in caption_id_lists]
        n_layers = len(self.decoder.layer_dims)
        if scene is None:
            return pool_captions(self.encoder.encode(framed, feats), n_layers)
        if np.shape(scene) != (len(framed),):
            raise DimensionError(f"encode_pooled: {np.size(scene)} scene ids for {len(framed)} captions")
        check_index(scene, feats.data.shape[0], "encode_pooled: scene")
        rows = np.bincount(scene, [len(ids) for ids in framed],
                           minlength=feats.data.shape[0])
        if not rows.all():
            raise ContractError(f"encode_pooled: scene {np.argmin(rows)} has no captions")
        pooled = []
        for run in capped_runs(rows):
            mine = np.flatnonzero((scene >= run.start) & (scene < run.stop))
            ids = scene[mine] - run.start
            final = self.encoder.encode([framed[i] for i in mine],
                                        Tensor(feats.data[run]), ids)
            pooled.append(pool_captions(final, n_layers, ids))
        return [tuple(stack_rows([p[layer][j] for p in pooled]) for j in (0, 1))
                for layer in range(n_layers)]

    def traces(self, caption_id_lists, features, scene=None):
        """Constant teacher traces [h_0 .. h_T], DecodedRows.trace's h rows,
        of the captions of one scene's (K, d) features or of an (S, K, d)
        stack, caption i in scene scene[i] (None: one scene).  Each scene's
        captions pool into one row (encode_pooled), from which one untaped
        teacher-forced pass runs them all: the teacher is frozen."""
        with no_grad():
            ctx = self.decoder.begin(features)
            init = self.encode_pooled(caption_id_lists, ctx.feats, scene)
            return teacher_forced(self.decoder, ctx, init, caption_id_lists,
                                  False, scene).trace

    def trace_for_tokens(self, tokens, features):
        """Teacher trace for a generated caption, the sole encoder input, as
        one-row h batches."""
        return self.traces([list(tokens)], features)

    def named_parameters(self):
        params = {"embedding.w": self.decoder.embedding.w}
        params.update(self.encoder.named_parameters("encoder"))
        for name, p in self.decoder.named_parameters("decoder").items():
            if name != "decoder.embedding.w":  # shared with the encoder
                params[name] = p
        return params

    def freeze(self):
        for p in self.named_parameters().values():
            p.requires_grad = False


def build_teacher(vocab_size, family, embed_dim, hidden_dim, feature_dim, seed,
                  bos_id, eos_id):
    """Deterministically seeded teacher; identical seeds give identical weights."""
    rng = np.random.default_rng(seed)
    embedding = Embedding(vocab_size, embed_dim, rng)
    encoder = CaptionEncoder(embedding, hidden_dim, feature_dim, rng)
    if family not in DECODERS:
        raise ContractError(f"unknown decoder family {family!r}")
    decoder = DECODERS[family](vocab_size, embed_dim, hidden_dim, feature_dim,
                               bos_id, eos_id, rng, embedding=embedding)
    return TeacherAutoencoder(encoder, decoder)


def pretrain_teacher(train_records, vocab, cfg, log=print):
    """Cross-entropy pretraining of the autoencoder.

    Every scene contributes the average reconstruction loss over its C
    references, each decoded from the shared pooled initial state while the
    encoder consumes all references.  The returned teacher is frozen.
    """
    teacher = build_teacher(len(vocab), cfg.family, cfg.embed_dim, cfg.hidden_dim,
                            train_records[0].features.shape[1], cfg.seed,
                            bos_id=vocab.BOS, eos_id=vocab.EOS)
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
            content = [vocab.encode(cap) for cap in rec.captions]
            with Tape() as tape:
                ctx = teacher.decoder.begin(rec.features)
                init = teacher.encode_pooled(content, ctx.feats)
                forced = teacher_forced(teacher.decoder, ctx, init, content, True)
                loss = neg(forced.log_likelihood()) * (1.0 / len(content))
                # argmax of the logits, not of the log-probs: subtracting the
                # normalizer can round two logits to a tie
                predicted = np.concatenate([np.argmax(lg.data, axis=1)
                                            for lg in forced.logits])
                correct += int(np.count_nonzero(predicted == forced.targets))
                emitted += predicted.size
                if not math.isfinite(loss.item()):
                    raise TrainingDiverged(
                        f"teacher loss became {loss.item()} at epoch {epoch}")
                backward(tape, loss)
            sgd_step(params, cfg.lr, cfg.grad_clip)
            total_loss += loss.item()
        acc = correct / max(1, emitted)
        mean_loss = total_loss / len(train_records)
        history.append({"epoch": epoch, "loss": mean_loss, "token_accuracy": acc})
        log(f"teacher epoch {epoch}: loss {mean_loss:.4f} token_acc {acc:.4f}")
    teacher.freeze()
    return teacher, history
