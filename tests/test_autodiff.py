import numpy as np
import pytest

from hsg import autodiff as ad
from hsg.autodiff import (ContractError, DimensionError, Tape, Tensor,
                          backward, grad_check, no_grad)


def tensors(*arrays):
    return [ad.parameter(np.asarray(a, dtype=np.float64)) for a in arrays]


def test_log_softmax_symmetry_and_stability():
    half = np.log(0.5)
    assert ad.log_softmax(Tensor([[0.0, 0.0]])).data.tolist() == [[half, half]]
    out = ad.log_softmax(Tensor([[1000.0, 0.0], [0.0, -1000.0]])).data
    assert out.tolist() == [[0.0, -1000.0], [0.0, -1000.0]]


def test_max_rows_values_and_tie_gradient():
    (m,) = tensors([[1.0, 5.0], [3.0, 2.0]])
    assert ad.max_rows(m).data.tolist() == [[3.0, 5.0]]
    # ties route the gradient to the earliest row
    (m,) = tensors([[2.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
    with Tape() as tape:
        out = ad.tensor_sum(ad.max_rows(m))
        backward(tape, out)
    assert m.grad.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


def test_max_rows_per_scene_values_and_tie_gradient():
    # scene 1 owns rows 0 and 2, scene 0 rows 1 and 3; each scene's ties go
    # to its own earliest row
    (m,) = tensors([[2.0, 7.0], [1.0, 4.0], [2.0, 9.0], [4.0, 4.0]])
    scene = np.array([1, 0, 1, 0])
    with Tape() as tape:
        out = ad.max_rows(m, scene)
        assert out.data.tolist() == [[4.0, 4.0], [2.0, 9.0]]
        backward(tape, ad.tensor_sum(out))
    assert m.grad.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ContractError):
        ad.max_rows(m, np.array([0, 0, 2, 2]))


def test_max_rows_sorted_and_shuffled_scenes_agree():
    # scene-major rows skip the sort; any row order must give the same
    # maxima, and ties must still route to each scene's earliest row
    rng = np.random.default_rng(3)
    data = rng.integers(0, 3, size=(9, 4)).astype(float)  # many ties
    scene = np.array([0, 0, 1, 1, 1, 2, 3, 3, 3])
    # interleave the scenes, keeping each scene's rows in order
    shuffled = np.empty(9, dtype=np.intp)
    shuffled_scene = rng.permutation(scene)
    for s in range(4):
        shuffled[shuffled_scene == s] = np.flatnonzero(scene == s)
    assert not np.all(shuffled_scene[:-1] <= shuffled_scene[1:])
    results = []
    for rows in (np.arange(9), shuffled):
        (m,) = tensors(data[rows])
        with Tape() as tape:
            out = ad.max_rows(m, scene[rows])
            backward(tape, ad.tensor_sum(ad.mul(out, Tensor(np.arange(16.0).reshape(4, 4)))))
        grad = np.empty_like(m.grad)
        grad[rows] = m.grad
        results.append((out.data, grad))
    (sorted_out, sorted_grad), (shuffled_out, shuffled_grad) = results
    assert np.array_equal(sorted_out, shuffled_out)
    assert np.array_equal(sorted_grad, shuffled_grad)
    # each column of each scene sends its gradient to one row: the earliest max
    for s in range(4):
        rows = np.flatnonzero(scene == s)
        for j in range(4):
            col = data[rows, j]
            hit = rows[np.flatnonzero(col == col.max())[0]]
            assert sorted_grad[hit, j] == 4 * s + j
            assert np.count_nonzero(sorted_grad[rows, j]) <= 1


def test_pointwise_values():
    assert ad.tanh(Tensor([0.0])).data.tolist() == [0.0]
    assert ad.exp(Tensor([0.0])).data.tolist() == [1.0]


def test_elementwise_ops_gradients():
    rng = np.random.default_rng(1)
    cases = [
        (lambda a, b: ad.tensor_sum(ad.mul(ad.add(a, b), ad.add(a, ad.neg(b)))), 2),
        (lambda a, b: ad.tensor_sum(ad.mul(a, b)), 2),
        (lambda a: ad.tensor_sum(ad.tanh(a)), 1),
        (lambda a: ad.tensor_sum(ad.exp(a)), 1),
        (lambda a, b: ad.tensor_sum(ad.tanh(ad.sum_terms([a, b, a]))), 2),
        (lambda a, b: ad.tensor_sum(ad.concat([a, b])), 2),
    ]
    for f, arity in cases:
        args = tensors(*(rng.normal(size=(1, 5)) for _ in range(arity)))
        assert grad_check(f, args) <= 1e-6


def test_incompatible_shapes_rejected():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        ad.mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))
    # a (1,) bias would broadcast over the 3 outputs and get a (3,) gradient
    with pytest.raises(DimensionError, match="bias"):
        ad.affine(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4))), Tensor(np.zeros(1)))
    # the matrix ops take (B, d) rows only
    with pytest.raises(DimensionError):
        ad.affine(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ad.log_softmax(Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ad.log_softmax(Tensor(np.zeros((2, 0))))
    with pytest.raises(DimensionError):
        ad.concat([Tensor(np.zeros(3)), Tensor(np.zeros((2, 3)))])
    with pytest.raises(DimensionError):
        ad.pick(Tensor(np.zeros(3)), np.array([1]))


def test_sum_terms_matches_add_chain_in_one_node():
    rng = np.random.default_rng(5)
    terms = tensors(*(rng.normal(size=()) * 10.0 ** rng.integers(-8, 8)
                      for _ in range(9)))
    chain = terms[0]
    for t in terms[1:]:
        chain = chain + t
    with Tape() as tape:
        total = ad.sum_terms(terms + [terms[0]])
        assert len(tape) == 1
        backward(tape, total)
    again = ad.sum_terms(terms)
    assert again.data.tobytes() == chain.data.tobytes()
    assert terms[0].grad == 2.0 and all(t.grad == 1.0 for t in terms[1:])
    assert ad.sum_terms([terms[0]]) is terms[0]
    with pytest.raises(ContractError):
        ad.sum_terms([])
    with pytest.raises(DimensionError):
        ad.sum_terms([Tensor(np.zeros(3)), Tensor(np.zeros(4))])


def test_squared_l2_basics():
    a, b = tensors([1.0, 2.0], [1.0, 2.0])
    assert ad.squared_l2(a, b).item() == 0.0
    a, b = tensors([1.0, 0.0], [0.0, 0.0])
    assert ad.squared_l2(a, b).item() == 1.0


def test_squared_l2_matches_loop_and_gradient():
    rng = np.random.default_rng(2)
    av, bv = rng.normal(size=8), rng.normal(size=8)
    a, b = tensors(av, bv)
    expected = sum((x - y) ** 2 for x, y in zip(av, bv))
    assert ad.squared_l2(a, b).item() == pytest.approx(expected, rel=1e-12)
    assert grad_check(ad.squared_l2, [a, b]) <= 1e-6
    with Tape() as tape:
        out = ad.squared_l2(a, b)
        backward(tape, out)
    assert np.allclose(a.grad, 2 * (av - bv), atol=1e-12)


def test_squared_l2_symmetry():
    rng = np.random.default_rng(3)
    a, b = tensors(rng.normal(size=6), rng.normal(size=6))
    assert ad.squared_l2(a, b).item() == ad.squared_l2(b, a).item()


def test_backward_sum_gives_ones():
    x = ad.parameter(np.zeros((2, 3)))
    with Tape() as tape:
        backward(tape, ad.tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_squared_l2_closed_form():
    x = ad.parameter([3.0, -1.0])
    const = Tensor([1.0, 1.0])
    with Tape() as tape:
        backward(tape, ad.squared_l2(x, const))
    assert np.allclose(x.grad, [4.0, -4.0], atol=1e-15)


def test_backward_composite_matches_finite_differences():
    rng = np.random.default_rng(4)
    w, m, b = tensors(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=3))
    err = grad_check(lambda *args: ad.tensor_sum(ad.tanh(ad.affine(*args))), [w, m, b])
    assert err <= 1e-6


def test_backward_visits_every_node_once():
    x = ad.parameter(np.ones(3))
    with Tape() as tape:
        y = ad.tanh(x)
        z = ad.mul(y, y)
        unused = ad.exp(x)  # reachable from x but not from the root
        root = ad.tensor_sum(z)
        runs = [0] * len(tape)

        def counted(i, fn):
            def run():
                runs[i] += 1
                fn()
            return run

        tape.nodes = [(counted(i, fn), outs) for i, (fn, outs) in enumerate(tape.nodes)]
        backward(tape, root)
    assert runs == [1, 1, 0, 1]
    assert unused.grad is None
    assert x.grad is not None


def test_backward_accumulates_across_calls():
    x = ad.parameter([1.0, 2.0])
    with Tape() as tape:
        root = ad.tensor_sum(x)
        backward(tape, root)
        first = x.grad.copy()
        backward(tape, root)
    assert np.allclose(x.grad, 2 * first)


def test_backward_rejects_non_scalar_root():
    x = ad.parameter(np.ones(3))
    with Tape() as tape:
        y = ad.tanh(x)
        with pytest.raises(ContractError):
            backward(tape, y)


def test_grad_check_linear_is_exact():
    x = ad.parameter(np.arange(4.0))
    assert grad_check(lambda t: ad.tensor_sum(t * 3.0), [x]) <= 1e-10


def test_no_grad_suppresses_recording():
    x = ad.parameter(np.ones(3))
    with Tape() as tape:
        with no_grad():
            y = ad.tanh(x)
        assert len(tape) == 0
        assert not y.requires_grad


# exports of hsg.autodiff that are not differentiable operations
NON_OPS = {"Tensor", "Tape", "DimensionError", "ContractError", "parameter",
           "no_grad", "backward", "grad_check", "check_index", "defer"}


def test_every_op_has_a_grad_check_case():
    from hsg.checks import _composite_cases, _op_cases
    cases = {name for name, _f, _inputs in _op_cases(0)}
    cases |= {name for name, _f, _inputs in _composite_cases(0)}
    ops = set(ad.__all__) - NON_OPS
    assert NON_OPS <= set(ad.__all__)
    assert sorted(ops - cases) == []
    # the LSTM step and layer are layer ops
    assert {"lstm_step", "lstm_layer"} <= cases
